package core

import "lciot/internal/telemetry"

// Metrics returns the telemetry registry the domain's instruments report
// into. All domains in a process share the default registry (series are
// disambiguated by their bus/domain labels), so the returned registry is
// what lciotd's /metrics endpoint serves.
func (d *Domain) Metrics() *telemetry.Registry {
	return telemetry.Default()
}

// registerDomainMetrics wires the domain-level series: all func-backed,
// reading state the subsystems maintain anyway.
func registerDomainMetrics(d *Domain) {
	reg := telemetry.Default()
	reg.GaugeFunc("core_obligation_backlog",
		func() float64 { return float64(d.oblSched.Len()) },
		"domain", d.name)
	reg.GaugeFunc("audit_ingest_depth",
		func() float64 { return float64(d.log.IngestDepth()) },
		"domain", d.name)
	// The worst rung of the degradation ladder as a number an alert can
	// threshold on: 0 ok, 1 degraded, 2 failed. Reading it rebuilds the
	// report, about a microsecond per scrape.
	reg.GaugeFunc("core_health_rung", func() float64 {
		d.Health()
		d.healthMu.Lock()
		defer d.healthMu.Unlock()
		return float64(d.healthWorst)
	}, "domain", d.name)
	reg.GaugeFunc("telemetry_spans_evicted", func() float64 {
		return float64(telemetry.SpansEvicted())
	}, "domain", d.name)
	// Lane-load skew (see skew.go): the imbalance gauge is what alerts
	// threshold on; max/mean give the magnitude behind it.
	reg.GaugeFunc("core_lane_imbalance", func() float64 {
		return d.SkewReport().Imbalance
	}, "domain", d.name)
	reg.GaugeFunc("core_lane_max_load", func() float64 {
		return float64(d.SkewReport().MaxLoad)
	}, "domain", d.name)
	reg.GaugeFunc("core_lane_mean_load", func() float64 {
		return d.SkewReport().MeanLoad
	}, "domain", d.name)
}
