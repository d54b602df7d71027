package mem

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestParseFaultSpecValid(t *testing.T) {
	fc, err := ParseFaultSpec("spike=0.05,spikecycles=300,drop=0.1,starve=0.2,starvecycles=40,panic=7,hang=9", 42)
	if err != nil {
		t.Fatal(err)
	}
	want := FaultConfig{Seed: 42, LatencySpikeProb: 0.05, LatencySpikeCycles: 300,
		DropPrefetchProb: 0.1, MSHRStarveProb: 0.2, MSHRStarveCycles: 40,
		PanicAfter: 7, HangAfter: 9}
	if fc != want {
		t.Fatalf("fc = %+v, want %+v", fc, want)
	}
	if fc.Validate() != nil {
		t.Fatal("parsed spec must validate")
	}
}

func TestParseFaultSpecRejects(t *testing.T) {
	for _, spec := range []string{
		"",                    // empty entry (no key=value)
		"spike",               // no '='
		"bogus=1",             // unknown key
		"spike=abc",           // non-numeric probability
		"panic=-1",            // negative count
		"panic=1.5",           // non-integer count
		"spike=1.5",           // probability > 1
		"spike=-0.1",          // probability < 0
		"spike=NaN",           // NaN parses as a float but must not validate
		"spike=+Inf",          // likewise infinity
		"spike=0.5",           // spike without spikecycles
		"starve=0.5",          // starve without starvecycles
		"spike=0.1,,drop=0.1", // empty middle entry
	} {
		fc, err := ParseFaultSpec(spec, 1)
		if err == nil {
			t.Errorf("%q: accepted as %+v, want error", spec, fc)
		}
	}
}

// FuzzParseFaultSpec: the flag parser must never panic, and a nil error
// must imply a configuration NewFaultInjector will accept (Validate nil) —
// that is the contract vrbench relies on before handing the config to the
// harness.
func FuzzParseFaultSpec(f *testing.F) {
	f.Add("spike=0.05,spikecycles=300,drop=0.1", int64(7))
	f.Add("panic=30000,hang=1", int64(-1))
	f.Add("spike=NaN", int64(0))
	f.Add("spike=1e309,spikecycles=1", int64(1))
	f.Add("=,=,=", int64(2))
	f.Add(strings.Repeat("spike=0,", 100)+"hang=0", int64(3))
	f.Add("\x00=\xff", int64(4))
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		fc, err := ParseFaultSpec(spec, seed)
		if err != nil {
			return
		}
		if verr := fc.Validate(); verr != nil {
			t.Fatalf("ParseFaultSpec(%q) returned nil error for invalid config %+v: %v", spec, fc, verr)
		}
		if fc.Seed != seed {
			t.Fatalf("ParseFaultSpec(%q) changed the seed: %d != %d", spec, fc.Seed, seed)
		}
	})
}

func TestForCellAttemptSeeds(t *testing.T) {
	base := FaultConfig{Seed: 7, LatencySpikeProb: 0.05, LatencySpikeCycles: 300}

	// Attempt 0 must hash exactly as the pre-retry per-cell derivation
	// did: campaigns that never retry keep their historical fault
	// sequences. The literals were captured from that derivation.
	for _, tc := range []struct {
		wl, tech string
		seed     int64
		index    int
		want     int64
	}{
		{"camel", "vr", 7, 3, 3896326605384372676},
		{"camel", "vr", 7, 0, 2225270944887846823},
		{"hj2", "ooo", 7, 0, 8879997287240031328},
		{"kangaroo", "pre", 7, 11, 3732446033499828187},
		{"camel", "vr", 1, 3, -6618035674169147331},
		{"hj2", "ooo", 1, 0, -3942337561818666489},
	} {
		cfg := base
		cfg.Seed = tc.seed
		if got := cfg.ForCellAttempt(tc.wl, tc.tech, tc.index, 0).Seed; got != tc.want {
			t.Errorf("seed %d %s/%s#%d attempt 0 = %d, want historical %d",
				tc.seed, tc.wl, tc.tech, tc.index, got, tc.want)
		}
	}

	// Distinct attempts, cells and campaigns must all derive distinct
	// seeds, and the derivation must be a pure function of its inputs.
	seen := map[int64]string{}
	for _, tc := range []struct {
		name           string
		wl, tech       string
		seed           int64
		index, attempt int
	}{
		{"base", "camel", "vr", 7, 3, 0},
		{"retry1", "camel", "vr", 7, 3, 1},
		{"retry2", "camel", "vr", 7, 3, 2},
		{"other cell", "camel", "vr", 7, 4, 0},
		{"other tech", "camel", "ooo", 7, 3, 0},
		{"other workload", "hj2", "vr", 7, 3, 0},
		{"other campaign", "camel", "vr", 8, 3, 0},
	} {
		cfg := base
		cfg.Seed = tc.seed
		d1 := cfg.ForCellAttempt(tc.wl, tc.tech, tc.index, tc.attempt)
		d2 := cfg.ForCellAttempt(tc.wl, tc.tech, tc.index, tc.attempt)
		if d1 != d2 {
			t.Errorf("%s: derivation not deterministic: %d vs %d", tc.name, d1.Seed, d2.Seed)
		}
		if prev, dup := seen[d1.Seed]; dup {
			t.Errorf("%s: seed %d collides with %s", tc.name, d1.Seed, prev)
		}
		seen[d1.Seed] = tc.name

		// Only the seed changes: rates and counts pass through untouched.
		d1.Seed = cfg.Seed
		if d1 != cfg {
			t.Errorf("%s: derivation changed non-seed fields: %+v", tc.name, d1)
		}
	}
}

// TestFaultConfigWireRoundTrip: process-isolated workers receive their
// FaultConfig as JSON inside the cell spec. The config must survive the
// wire bit-exactly — same struct back, and the per-attempt seed
// derivation computed remotely must match the supervisor's — or the two
// isolation modes could not produce byte-identical campaigns.
func TestFaultConfigWireRoundTrip(t *testing.T) {
	fc, err := ParseFaultSpec("spike=0.05,spikecycles=300,drop=0.1,starve=0.01,starvecycles=40,panic=30000,hang=2", 7)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(fc)
	if err != nil {
		t.Fatal(err)
	}
	var back FaultConfig
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != fc {
		t.Fatalf("round-trip changed the config: %+v != %+v", back, fc)
	}
	for attempt := 0; attempt < 3; attempt++ {
		local := fc.ForCellAttempt("camel", "vr", 5, attempt)
		remote := back.ForCellAttempt("camel", "vr", 5, attempt)
		if local != remote {
			t.Errorf("attempt %d: remote derivation diverged: %+v != %+v", attempt, remote, local)
		}
	}

	// The derived per-cell config is itself what crosses the wire; it
	// must round-trip too (a crashed worker's redispatch re-sends it).
	derived := fc.ForCellAttempt("hj2", "ooo", 2, 1)
	data, err = json.Marshal(derived)
	if err != nil {
		t.Fatal(err)
	}
	var dback FaultConfig
	if err := json.Unmarshal(data, &dback); err != nil {
		t.Fatal(err)
	}
	if dback != derived {
		t.Fatalf("derived config round-trip changed: %+v != %+v", dback, derived)
	}
}

func TestFaultConfigValidateNaN(t *testing.T) {
	nan := FaultConfig{LatencySpikeProb: math.NaN(), LatencySpikeCycles: 10}
	if nan.Validate() == nil {
		t.Fatal("NaN probability passed Validate")
	}
}
