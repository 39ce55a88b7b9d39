package config

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
)

// FuzzConfigJSON feeds arbitrary bytes through Parse: any input must
// either yield a validated configuration or an error — never a panic
// (dasbench exposes -config to user-supplied files). Accepted configs
// must additionally survive the derived-parameter constructors, which
// is where inconsistent geometry would blow up.
func FuzzConfigJSON(f *testing.F) {
	if def, err := json.MarshalIndent(Default(), "", "  "); err == nil {
		f.Add(def)
	}
	if sc, err := json.Marshal(Scaled()); err == nil {
		f.Add(sc)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"Cores":0}`))
	f.Add([]byte(`{"RowsPerBank":-5}`))
	f.Add([]byte(`{"RowsPerBank":3}`))
	f.Add([]byte(`{"Replacement":"bogus"}`))
	f.Add([]byte(`{"FastDenom":1000000,"GroupSize":-1}`))
	f.Add([]byte(`{"WeakRowRate":2.5,"MigFailRate":-1}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"cpu_ghz":0}`))
	f.Add([]byte(`{"rows_per_bank":2097152,"l1_kb":1,"l1_assoc":16}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(data)
		if err != nil {
			return
		}
		// A config that passed validation must be usable end to end.
		c.Geometry()
		for _, d := range []core.Design{core.Standard, core.SAS, core.CHARM, core.DAS, core.DASFM, core.FS} {
			c.DRAMConfig(d)
			if _, err := c.ManagerConfig(d); err != nil {
				t.Fatalf("validated config rejected by ManagerConfig(%v): %v\ninput: %s", d, err, data)
			}
		}
	})
}
