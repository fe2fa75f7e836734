package core

import (
	"sync"
	"testing"
)

// TestHealthCacheCopiesAndInvalidates: the cached path must hand out
// copies (a caller mutating the report cannot poison the cache), and a
// real state change must invalidate the fingerprint so the next poll
// rebuilds.
func TestHealthCacheCopiesAndInvalidates(t *testing.T) {
	clock := newTestClock()
	d, src := obligationDomain(t, t.TempDir(), clock)
	publishTelemetry(t, src, "pump-2", 3)
	d.Log().Flush()

	first := d.Health()
	first[0].Detail = "vandalised"
	first[0].State = HealthFailed
	second := d.Health()
	if second[0].Detail == "vandalised" || second[0].State == HealthFailed {
		t.Fatal("caller mutation leaked into the cached health report")
	}

	busDetail := func(report []SubsystemHealth) string {
		for _, h := range report {
			if h.Subsystem == "bus" {
				return h.Detail
			}
		}
		return ""
	}
	before := busDetail(second)
	publishTelemetry(t, src, "pump-2", 4) // moves the shard delivered totals
	after := busDetail(d.Health())
	if before == after {
		t.Fatalf("delivered-count change did not invalidate the cache (detail still %q)", after)
	}
}

// TestHealthConcurrentWithClose hammers Health() from several goroutines
// while the domain closes; under -race this proves the subsystem probes
// and the transition state are safe against teardown.
func TestHealthConcurrentWithClose(t *testing.T) {
	clock := newTestClock()
	d, src := obligationDomain(t, t.TempDir(), clock)
	publishTelemetry(t, src, "pump-3", 5)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 200; j++ {
				report := d.Health()
				if len(report) != 4 {
					t.Errorf("health report has %d subsystems", len(report))
					return
				}
			}
		}()
	}
	close(start)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}
