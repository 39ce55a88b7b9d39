package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// Error is the structured failure every non-200 response carries as a
// JSON body. Kind is machine-matchable; Msg is for humans. Status never
// serializes (it is the transport's concern).
type Error struct {
	Status        int    `json:"-"`
	Kind          string `json:"kind"`
	Msg           string `json:"error"`
	RetryAfterSec int    `json:"retry_after_sec,omitempty"`
}

// Error kinds, one per distinct failure mode the server isolates.
const (
	KindBadRequest = "bad_request" // unparsable or invalid request (400)
	KindShed       = "shed"        // admission queue full, retry later (429)
	KindDraining   = "draining"    // server shutting down (503)
	KindTimeout    = "timeout"     // per-job deadline exceeded (504)
	KindPanic      = "panic"       // job panicked; server survived (500)
	KindInternal   = "internal"    // simulation returned an error (500)
)

// Error renders the failure for logs and error chains.
func (e *Error) Error() string { return fmt.Sprintf("serve: %s: %s", e.Kind, e.Msg) }

// writeError emits e as the JSON response, with Retry-After when the
// failure is retryable.
func writeError(w http.ResponseWriter, e *Error) {
	w.Header().Set("Content-Type", "application/json")
	if e.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterSec))
	}
	w.WriteHeader(e.Status)
	body, err := json.Marshal(e)
	if err != nil { // cannot happen for this struct; keep the contract anyway
		body = []byte(`{"kind":"internal","error":"error encoding failed"}`)
	}
	w.Write(append(body, '\n'))
}

// asError maps an arbitrary job failure to its structured form: *Error
// passes through; everything else is an internal simulation failure.
func asError(err error) *Error {
	var se *Error
	if errors.As(err, &se) {
		return se
	}
	return &Error{Status: http.StatusInternalServerError, Kind: KindInternal, Msg: err.Error()}
}
