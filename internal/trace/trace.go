// Package trace records and replays memory-instruction traces in a
// compact varint-delta binary format, so synthetic workloads can be
// captured once and replayed deterministically (or replaced by traces
// converted from external tools).
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/workload"
)

// magic identifies the trace format ("DASTRC1\n").
var magic = [8]byte{'D', 'A', 'S', 'T', 'R', 'C', '1', '\n'}

// Record flags.
const (
	flagMem       = 1 << 0
	flagWrite     = 1 << 1
	flagDependent = 1 << 2
	// flagGap marks a run of non-memory instructions; the gap length
	// follows as a varint instead of an address delta.
	flagGap = 1 << 3
)

// Writer serializes instructions. Non-memory instructions are run-length
// encoded; memory addresses are zig-zag deltas against the previous
// address, which compresses strided and streaming patterns well.
type Writer struct {
	w        *bufio.Writer
	lastAddr uint64
	gap      uint64
	buf      [binary.MaxVarintLen64 + 1]byte
	err      error
}

// NewWriter wraps w and writes the header immediately.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("trace: write header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Append adds one instruction.
func (t *Writer) Append(in workload.Instr) error {
	if t.err != nil {
		return t.err
	}
	if !in.Mem {
		t.gap++
		return nil
	}
	if err := t.flushGap(); err != nil {
		return err
	}
	flags := byte(flagMem)
	if in.Write {
		flags |= flagWrite
	}
	if in.Dependent {
		flags |= flagDependent
	}
	t.buf[0] = flags
	delta := int64(in.Addr) - int64(t.lastAddr)
	n := binary.PutVarint(t.buf[1:], delta)
	t.lastAddr = in.Addr
	_, t.err = t.w.Write(t.buf[:1+n])
	return t.err
}

// flushGap emits a pending non-memory run.
func (t *Writer) flushGap() error {
	if t.gap == 0 {
		return nil
	}
	t.buf[0] = flagGap
	n := binary.PutUvarint(t.buf[1:], t.gap)
	t.gap = 0
	_, t.err = t.w.Write(t.buf[:1+n])
	return t.err
}

// Flush completes the trace (call before closing the underlying file).
func (t *Writer) Flush() error {
	if err := t.flushGap(); err != nil {
		return err
	}
	return t.w.Flush()
}

// Reader decodes a trace.
type Reader struct {
	r        *bufio.Reader
	lastAddr uint64
	gapLeft  uint64
}

// NewReader validates the header and prepares for decoding.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if hdr != magic {
		return nil, errors.New("trace: bad magic (not a DASTRC1 trace)")
	}
	return &Reader{r: br}, nil
}

// Next decodes one instruction; it returns io.EOF at end of trace.
func (t *Reader) Next(in *workload.Instr) error {
	*in = workload.Instr{}
	if t.gapLeft > 0 {
		t.gapLeft--
		return nil
	}
	flags, err := t.r.ReadByte()
	if err != nil {
		return err
	}
	if flags&flagGap != 0 {
		gap, err := binary.ReadUvarint(t.r)
		if err != nil {
			return fmt.Errorf("trace: truncated gap: %w", err)
		}
		if gap == 0 {
			return errors.New("trace: zero-length gap")
		}
		t.gapLeft = gap - 1
		return nil
	}
	if flags&flagMem == 0 {
		return fmt.Errorf("trace: invalid record flags %#x", flags)
	}
	delta, err := binary.ReadVarint(t.r)
	if err != nil {
		return fmt.Errorf("trace: truncated address: %w", err)
	}
	t.lastAddr = uint64(int64(t.lastAddr) + delta)
	in.Mem = true
	in.Write = flags&flagWrite != 0
	in.Dependent = flags&flagDependent != 0
	in.Addr = t.lastAddr
	return nil
}

// Replayer adapts a fully-loaded trace into a workload.Generator,
// looping when it reaches the end so cores never run dry.
type Replayer struct {
	name   string
	instrs []workload.Instr
	pos    int
	// Loops counts wrap-arounds.
	Loops int
}

// NewReplayer reads the whole trace from r into memory.
func NewReplayer(name string, r io.Reader) (*Replayer, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	rep := &Replayer{name: name}
	var in workload.Instr
	for {
		err := tr.Next(&in)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		rep.instrs = append(rep.instrs, in)
	}
	if len(rep.instrs) == 0 {
		return nil, errors.New("trace: empty trace")
	}
	return rep, nil
}

// Name implements workload.Generator.
func (r *Replayer) Name() string { return r.name }

// Len returns the trace length in instructions.
func (r *Replayer) Len() int { return len(r.instrs) }

// Next implements workload.Generator.
func (r *Replayer) Next(in *workload.Instr) {
	*in = r.instrs[r.pos]
	r.pos++
	if r.pos == len(r.instrs) {
		r.pos = 0
		r.Loops++
	}
}

// Fill implements workload.Generator.
func (r *Replayer) Fill(buf []workload.Instr) {
	for i := range buf {
		r.Next(&buf[i])
	}
}

// Capture runs gen for n instructions, writing them to w.
func Capture(gen workload.Generator, n uint64, w io.Writer) error {
	tw, err := NewWriter(w)
	if err != nil {
		return err
	}
	var in workload.Instr
	for i := uint64(0); i < n; i++ {
		gen.Next(&in)
		if err := tw.Append(in); err != nil {
			return err
		}
	}
	return tw.Flush()
}
