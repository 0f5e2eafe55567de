package experiments

import (
	"fmt"
	"strings"

	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// E14Row is one CPU product's risk ledger.
type E14Row struct {
	SKU             string
	Machines        int
	MercurialCores  int
	PerThousand     float64
	ActiveByEnd     int
	Quarantined     int
	MeanLatencyDays float64
}

// E14Result is the heterogeneous-fleet risk assessment §4 asks for: "How
// can we assess the risks to a large fleet, with various CPU types, from
// several vendors, and of various ages?"
type E14Result struct{ Rows []E14Row }

// E14 runs a mixed-SKU fleet — a mature low-defect product, a dense new
// product, and an old pre-aged population — and reports per-SKU incidence
// and detection.
func E14(s Scale) E14Result {
	cfg := fleetConfig(s)
	cfg.Machines *= 2
	cfg.SKUs = []fleet.SKU{
		{Name: "vendorA-mature", Fraction: 0.5, DefectMultiplier: 0.5},
		{Name: "vendorB-new", Fraction: 0.3, DefectMultiplier: 2.5},
		{Name: "vendorA-aged", Fraction: 0.2, DefectMultiplier: 1.0, PreAgeDays: 1200},
	}
	nDays := days(s, 60, 180)
	r := newRunner(cfg)
	r.Run(nDays)
	f := r.Fleet()
	rep := metrics.Detection(f, nDays)
	_ = rep

	perSKU := map[string]*E14Row{}
	for _, k := range cfg.SKUs {
		perSKU[k.Name] = &E14Row{SKU: k.Name}
	}
	for _, id := range f.Cluster().Machines() {
		if row, ok := perSKU[f.MachineSKU(id)]; ok {
			row.Machines++
		}
	}
	quarantineDay := map[sched.CoreRef]float64{}
	for _, r := range f.Manager().Records() {
		quarantineDay[r.Ref] = r.When.Days()
	}
	latSum := map[string]float64{}
	latN := map[string]int{}
	for _, d := range f.Defects() {
		row, ok := perSKU[f.MachineSKU(d.Machine)]
		if !ok {
			continue
		}
		row.MercurialCores++
		if float64(d.FirstActive.Days()) <= float64(nDays) {
			row.ActiveByEnd++
		}
		ref := sched.CoreRef{Machine: d.Machine, Core: d.Core}
		if day, ok := quarantineDay[ref]; ok {
			row.Quarantined++
			lat := day - d.FirstActive.Days()
			if lat < 0 {
				lat = 0
			}
			latSum[row.SKU] += lat
			latN[row.SKU]++
		}
	}
	var out E14Result
	for _, k := range cfg.SKUs {
		row := perSKU[k.Name]
		if row.Machines > 0 {
			row.PerThousand = 1000 * float64(row.MercurialCores) / float64(row.Machines)
		}
		if latN[k.Name] > 0 {
			row.MeanLatencyDays = latSum[k.Name] / float64(latN[k.Name])
		}
		out.Rows = append(out.Rows, *row)
	}
	return out
}

// Table renders E14.
func (r E14Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E14 — heterogeneous-fleet risk assessment (§4)\n")
	fmt.Fprintf(&b, "%-16s %9s %10s %12s %9s %12s %11s\n",
		"sku", "machines", "mercurial", "per 1000", "active", "quarantined", "latency(d)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %9d %10d %12.2f %9d %12d %11.1f\n",
			row.SKU, row.Machines, row.MercurialCores, row.PerThousand,
			row.ActiveByEnd, row.Quarantined, row.MeanLatencyDays)
	}
	fmt.Fprintf(&b, "paper: \"CEEs appear to be an industry-wide problem ... but the rate is\n")
	fmt.Fprintf(&b, "not uniform across CPU products\"; pre-aged SKUs surface latent defects\n")
	return b.String()
}
