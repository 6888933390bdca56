package serve

import (
	"errors"
	"testing"
)

// TestDecodeRecordUpgradesPatternSpec pins the upgrade of specs
// journaled before dfly-job/3, which carry only the pattern spelling:
// decoding resolves it to its traffic family, keeps the journaled hash,
// and rejects an unknown pattern as a corrupt record.
func TestDecodeRecordUpgradesPatternSpec(t *testing.T) {
	line := []byte(`{"v":1,"type":"accepted","id":"j000001","spec":{"Kind":"run","Family":"dragonfly",` +
		`"Params":{"a":4,"g":9,"h":2,"p":2},"BufDepth":16,"Seed":1,"Algorithm":"MIN","Pattern":"WC",` +
		`"Loads":[0.1],"Warmup":50,"Measure":50,"Drain":1000},"hash":"journaled"}`)
	r, err := decodeRecord(line)
	if err != nil {
		t.Fatalf("decodeRecord: %v", err)
	}
	if r.Spec.Traffic != "wc" || len(r.Spec.TrafficParams) != 0 || r.Spec.Pattern != "WC" {
		t.Errorf("upgraded spec traffic %q params %v pattern %q; want wc, none, WC",
			r.Spec.Traffic, r.Spec.TrafficParams, r.Spec.Pattern)
	}
	if r.Hash != "journaled" {
		t.Errorf("hash %q: the journaled hash must be kept", r.Hash)
	}
	wl, err := specWorkload(*r.Spec, 72)
	if err != nil || wl.Traffic != "wc" || wl.Source != "" {
		t.Errorf("specWorkload = %+v, %v; want wc traffic under the default source", wl, err)
	}

	bad := []byte(`{"v":1,"type":"accepted","id":"j000002","spec":{"Kind":"run","Pattern":"Bogus"},"hash":"h"}`)
	if _, err := decodeRecord(bad); !errors.Is(err, ErrCorruptRecord) {
		t.Errorf("unknown journaled pattern: %v, want ErrCorruptRecord", err)
	}
}

// TestPatternIsAlternateTrafficKey pins "pattern" as another spelling
// of "traffic": both canonicalise to one family and one hash, the
// report keeps the submitted pattern spelling, and setting both fails.
func TestPatternIsAlternateTrafficKey(t *testing.T) {
	byPattern, err := Submission{Kind: KindRun, Algorithm: "MIN", Pattern: "BitComplement", Load: 0.1}.Normalize(Limits{})
	if err != nil {
		t.Fatalf("pattern: %v", err)
	}
	byTraffic, err := Submission{Kind: KindRun, Algorithm: "MIN", Traffic: "bitcomp", Load: 0.1}.Normalize(Limits{})
	if err != nil {
		t.Fatalf("traffic: %v", err)
	}
	if byPattern.Traffic != "bitcomp" || byPattern.Hash() != byTraffic.Hash() {
		t.Errorf("pattern spec traffic %q hash %s; traffic spec hash %s: want bitcomp, one hash",
			byPattern.Traffic, byPattern.Hash(), byTraffic.Hash())
	}
	if byPattern.Pattern != "BitComplement" || byTraffic.Pattern != "bitcomp" {
		t.Errorf("display names %q, %q; want the submitted spellings", byPattern.Pattern, byTraffic.Pattern)
	}
	if _, err := (Submission{Kind: KindRun, Algorithm: "MIN", Pattern: "UR", Traffic: "ur", Load: 0.1}).Normalize(Limits{}); err == nil {
		t.Error("pattern and traffic together accepted")
	}
}
