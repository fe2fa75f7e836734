package main

import (
	"fmt"

	"lciot/internal/audit"
)

// Oracle names, as the command reports them when a check fails.
const (
	oracleChain       = "chain-verifies"
	oracleDenied      = "denied-never-delivered"
	oracleExactlyOnce = "allowed-delivered-once"
	oracleEpisodes    = "episodes-match-reference"
	oracleSweeps      = "sweeps-match-due"
	oracleErasure     = "erasure-complete"
	oracleRetention   = "retention-compliant"
)

// oracles collects failed checks as "name: detail".
type oracles struct{ failed []string }

func (o *oracles) check(name string, err error) {
	if err != nil {
		o.failed = append(o.failed, name+": "+err.Error())
	}
}

// A chain is an audit tier whose hash chain can be re-verified:
// *audit.Log and *store.AuditStore.
type chain interface {
	Verify() (int64, error)
}

// verifyChains re-verifies every chain, keyed by the tier it belongs to.
func verifyChains(chains map[string]chain) error {
	for name, c := range chains {
		if _, err := c.Verify(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// deniedNeverDelivered joins FlowDenied records with sink observations on
// the message (DataID): a message the audit trail records as denied
// toward a sink must never have reached that sink.
func deniedNeverDelivered(denied, delivered []int32) error {
	for i := range denied {
		if denied[i] > 0 && delivered[i] > 0 {
			return fmt.Errorf("message %d denied %d times yet delivered %d times", i, denied[i], delivered[i])
		}
	}
	return nil
}

// exactlyOnce checks, per message, that the sink saw it exactly as often
// as the audit trail records it allowed there, at most once, and exactly
// once where required marks the message as one that must arrive.
func exactlyOnce(allowed, delivered []int32, required func(i int) bool) error {
	for i := range allowed {
		a, d := allowed[i], delivered[i]
		switch {
		case a != d:
			return fmt.Errorf("message %d: %d allowed records but %d deliveries", i, a, d)
		case d > 1:
			return fmt.Errorf("message %d delivered %d times", i, d)
		case required(i) && d != 1:
			return fmt.Errorf("message %d was never delivered", i)
		}
	}
	return nil
}

// countsMatch compares per-key counts with the generator's reference.
func countsMatch(what string, got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d keys, reference has %d", what, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			return fmt.Errorf("%s for key %d: got %d, reference %d", what, k, got[k], want[k])
		}
	}
	return nil
}

// sweepsMatch compares the deadlines the sweeps executed with the number
// the generator's inputs made due.
func sweepsMatch(executed, due int) error {
	if executed != due {
		return fmt.Errorf("sweeps executed %d deadlines, inputs made %d due", executed, due)
	}
	return nil
}

// erasureComplete checks that no record still names an erased DataID
// without having been tombstoned.
func erasureComplete(tier string, recs []audit.Record, erased map[string]bool) error {
	for _, r := range recs {
		if !r.Redacted && r.DataID != "" && erased[r.DataID] {
			return fmt.Errorf("%s %s record %d still names erased datum %s", tier, r.Kind, r.Seq, r.DataID)
		}
	}
	return nil
}

// retentionCompliant fails on any violation in a retention report.
func retentionCompliant(rep audit.RetentionCompliance) error {
	if !rep.Compliant {
		return fmt.Errorf("tag %s: %d records past retention not tombstoned (checked %d)",
			rep.Tag, len(rep.Violations), rep.Checked)
	}
	return nil
}
