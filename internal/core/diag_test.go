package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"lciot/internal/fault"
)

// shrinkCPUProfile makes diagnostic captures fast for one test.
func shrinkCPUProfile(t *testing.T) {
	t.Helper()
	prev := diagCPUProfileNs.Load()
	diagCPUProfileNs.Store(int64(10 * time.Millisecond))
	t.Cleanup(func() { diagCPUProfileNs.Store(prev) })
}

// TestDiagCaptureOnDegradation walks the audit store down a rung (as the
// health ladder test does) and asserts the transition left a diagnostic
// snapshot under DataDir/diag: the state files an operator reads first
// must be present and the directory name must carry the reason.
func TestDiagCaptureOnDegradation(t *testing.T) {
	defer fault.DisarmAll()
	shrinkCPUProfile(t)
	clock := newTestClock()
	dir := t.TempDir()
	d, src := obligationDomainWith(t, Options{Clock: clock.Now, DataDir: dir, DiagCapture: true})

	if got, want := d.DiagDir(), filepath.Join(dir, "diag"); got != want {
		t.Fatalf("DiagDir = %q, want %q", got, want)
	}
	d.Health() // establish the ok baseline so the rung change is a transition

	fault.Arm("store.wal.write", fault.Always(fault.Action{Err: fault.Wrap(syscall.ENOSPC)}))
	publishTelemetry(t, src, "pump-1", 5)
	d.Log().Flush()
	_ = d.AuditStore().Sync() // surfaces (and latches) the degraded state
	publishTelemetry(t, src, "pump-1", 5)
	d.Log().Flush()
	d.Health() // the ok→degraded transition triggers the capture

	var snap string
	deadline := time.Now().Add(10 * time.Second)
	for snap == "" {
		if entries, err := os.ReadDir(d.DiagDir()); err == nil && len(entries) > 0 {
			snap = filepath.Join(d.DiagDir(), entries[0].Name())
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no diagnostic capture appeared after the degradation transition")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.HasSuffix(filepath.Base(snap), "-degraded") {
		t.Fatalf("snapshot dir %q does not carry the transition reason", filepath.Base(snap))
	}
	// The capture runs asynchronously, state files first; wait for the
	// last file (the CPU profile) and then check the full set.
	for {
		if _, err := os.Stat(filepath.Join(snap, "cpu.pprof")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("capture %s did not complete", snap)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, name := range []string{"health.json", "skew.json", "spans.json", "heap.pprof"} {
		st, err := os.Stat(filepath.Join(snap, name))
		if err != nil {
			t.Fatalf("capture missing %s: %v", name, err)
		}
		if name != "heap.pprof" && st.Size() == 0 {
			t.Fatalf("capture %s is empty", name)
		}
	}
	health, err := os.ReadFile(filepath.Join(snap, "health.json"))
	if err != nil || !strings.Contains(string(health), "audit-store") {
		t.Fatalf("health.json = %q, %v: want the ladder report", health, err)
	}
}

// TestDiagRetentionCap hammers captureDiag past the cap and asserts the
// snapshot directory never holds more than diagKeep entries — the prune
// runs before each capture, so the bound holds even mid-capture.
func TestDiagRetentionCap(t *testing.T) {
	prev := diagCPUProfileNs.Load()
	diagCPUProfileNs.Store(0)
	t.Cleanup(func() { diagCPUProfileNs.Store(prev) })
	d, err := NewDomain("diag-ret", Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < diagKeep+3; i++ {
		d.captureDiag("test")
		entries, err := os.ReadDir(d.DiagDir())
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) > diagKeep {
			t.Fatalf("after capture %d: %d snapshots retained, cap is %d",
				i+1, len(entries), diagKeep)
		}
	}
	entries, _ := os.ReadDir(d.DiagDir())
	if len(entries) != diagKeep {
		t.Fatalf("retained %d snapshots, want exactly %d", len(entries), diagKeep)
	}
}

// TestDiagNoDataDirNeverCaptures pins the gate: an in-memory domain has
// nowhere to write, so a transition must not spawn a capture goroutine.
func TestDiagNoDataDirNeverCaptures(t *testing.T) {
	clock := newTestClock()
	d := newDomain(t, clock)
	defer d.Close()
	if d.DiagDir() != "" {
		t.Fatalf("DiagDir = %q on a domain without a DataDir", d.DiagDir())
	}
	d.maybeCaptureDiag("degraded")
	if d.diagInflight.Load() {
		t.Fatal("capture in flight on a domain without a DataDir")
	}
}

// TestDiagCaptureIsOptIn: a domain with a DataDir but without
// Options.DiagCapture never starts a capture, whatever triggers one.
func TestDiagCaptureIsOptIn(t *testing.T) {
	d, err := NewDomain("diag-off", Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.maybeCaptureDiag("degraded")
	if d.diagInflight.Load() {
		t.Fatal("capture in flight on a domain that did not arm capture")
	}
	if _, err := os.Stat(d.DiagDir()); !os.IsNotExist(err) {
		t.Fatalf("diag directory exists on a domain that did not arm capture: %v", err)
	}
}

// TestCloseJoinsDiagCapture starts a capture whose CPU profile would run
// for a minute, closes the domain mid-profile, and asserts that Close
// cancelled and joined it — nothing under DataDir changes once Close has
// returned — and that a capture requested after Close is refused.
func TestCloseJoinsDiagCapture(t *testing.T) {
	prev := diagCPUProfileNs.Load()
	diagCPUProfileNs.Store(int64(time.Minute))
	t.Cleanup(func() { diagCPUProfileNs.Store(prev) })
	dir := t.TempDir()
	d, err := NewDomain("diag-close", Options{DataDir: dir, DiagCapture: true})
	if err != nil {
		t.Fatal(err)
	}
	d.maybeCaptureDiag("test")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m, _ := filepath.Glob(filepath.Join(d.DiagDir(), "*", "cpu.pprof")); len(m) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("capture never reached its CPU profile")
		}
		time.Sleep(5 * time.Millisecond)
	}
	start := time.Now()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 30*time.Second {
		t.Fatalf("Close took %v: the CPU profile was not cancelled", took)
	}
	if d.diagInflight.Load() {
		t.Fatal("capture still in flight after Close returned")
	}
	before := treeState(t, dir)
	d.maybeCaptureDiag("after-close")
	time.Sleep(100 * time.Millisecond)
	if after := treeState(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("DataDir changed after Close returned:\nbefore %v\nafter  %v", before, after)
	}
}

// treeState lists every path under root with its size and modification
// time.
func treeState(t *testing.T, root string) map[string]string {
	t.Helper()
	state := map[string]string{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		state[path] = fmt.Sprintf("%d %d", info.Size(), info.ModTime().UnixNano())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return state
}
