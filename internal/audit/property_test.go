package audit

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lciot/internal/ifc"
)

// randomRecord builds a record with fuzzable content fields.
func randomRecord(r *rand.Rand) Record {
	kinds := []EventKind{FlowAllowed, FlowDenied, ContextChange, Reconfiguration, BreakGlass}
	words := []string{"sensor", "analyser", "gateway", "cloud", "team", ""}
	pick := func() string { return words[r.Intn(len(words))] }
	return Record{
		Kind:   kinds[r.Intn(len(kinds))],
		Layer:  Layer(r.Intn(3) + 1),
		Domain: pick(),
		Src:    ifc.EntityID(pick()),
		Dst:    ifc.EntityID(pick()),
		DataID: pick(),
		Agent:  ifc.PrincipalID(pick()),
		Note:   pick(),
	}
}

// TestPropertyChainDetectsAnyMutation: for any log of random records,
// mutating any single content field of any record breaks verification.
func TestPropertyChainDetectsAnyMutation(t *testing.T) {
	f := func(seed int64, nRaw uint8, victimRaw uint8, fieldRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%16) + 2 // 2..17 records
		l := NewLog(testClock())
		for i := 0; i < n; i++ {
			l.Append(randomRecord(r))
		}
		if bad, err := l.Verify(); err != nil || bad != -1 {
			return false // untampered log must verify
		}
		victim := int(victimRaw) % n
		l.mu.Lock()
		rec := l.records.At(victim)
		switch fieldRaw % 5 {
		case 0:
			rec.Note += "!"
		case 1:
			rec.Src += "x"
		case 2:
			rec.DataID += "y"
		case 3:
			if rec.Kind == FlowAllowed {
				rec.Kind = FlowDenied
			} else {
				rec.Kind = FlowAllowed
			}
		case 4:
			rec.Agent += "z"
		}
		l.mu.Unlock()
		bad, err := l.Verify()
		return err != nil && bad == int64(victim)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error("mutation escaped the hash chain:", err)
	}
}

// TestPropertyPruneKeepsVerifiability: pruning any prefix leaves both the
// segment and the retained log verifiable, and they link.
func TestPropertyPruneKeepsVerifiability(t *testing.T) {
	f := func(seed int64, nRaw, cutRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%20) + 3
		cut := uint64(cutRaw) % uint64(n)
		l := NewLog(testClock())
		for i := 0; i < n; i++ {
			l.Append(randomRecord(r))
		}
		segment := l.Prune(cut)
		if err := VerifySegment(segment, nil); err != nil {
			return false
		}
		if bad, err := l.Verify(); err != nil || bad != -1 {
			return false
		}
		if cut > 0 && l.Len() > 0 {
			first, err := l.Get(cut)
			if err != nil {
				return false
			}
			if err := VerifySegment(segment, &first); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error("prune broke verifiability:", err)
	}
}

// TestPropertyExportImportPreservesChain: JSON round trips never break the
// chain.
func TestPropertyExportImportPreservesChain(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		l := NewLog(testClock())
		for i := 0; i < int(nRaw%10)+1; i++ {
			l.Append(randomRecord(r))
		}
		data, err := ExportJSON(l)
		if err != nil {
			return false
		}
		recs, err := ImportRecords(data)
		if err != nil {
			return false
		}
		return VerifySegment(recs, nil) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error("export/import broke the chain:", err)
	}
}
