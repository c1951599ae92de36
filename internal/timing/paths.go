package timing

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/hls"
	"repro/internal/route"
	"repro/internal/rtl"
)

// Path is one timing path: a routed connection plus the combinational
// logic it terminates in, reported the way Vivado's timing summary lists
// its worst paths.
type Path struct {
	Net     *rtl.Net
	Sink    *rtl.Cell
	WireNS  float64 // interconnect delay (congestion-aware)
	LogicNS float64 // intra-state combinational delay at the sink
	TotalNS float64
	Length  int     // tiles traversed
	MaxUtil float64 // worst routing utilization on the path
}

// CriticalPaths returns the k slowest paths of an implementation, sorted
// by total delay. It is the drill-down behind Report.CriticalNS: the first
// entry's total plus the clock uncertainty equals the reported critical
// arrival.
func CriticalPaths(s *hls.Schedule, nl *rtl.Netlist, rr *route.Result, md Model, k int) []Path {
	intrinsic := make([]float64, len(nl.Cells))
	for _, c := range nl.Cells {
		worst := 0.5
		for _, o := range c.Ops() {
			if d := s.Slot(o).FinishDelay; d > worst {
				worst = d
			}
		}
		intrinsic[c.ID] = worst
	}
	paths := make([]Path, 0, len(rr.Pins))
	for _, p := range rr.Pins {
		wire := md.WireDelay(p)
		logic := intrinsic[p.Sink.Cell.ID]
		paths = append(paths, Path{
			Net:     p.Net,
			Sink:    p.Sink.Cell,
			WireNS:  wire,
			LogicNS: logic,
			TotalNS: wire + logic,
			Length:  p.Length,
			MaxUtil: p.MaxUtil,
		})
	}
	sort.Slice(paths, func(i, j int) bool { return paths[i].TotalNS > paths[j].TotalNS })
	if k > 0 && len(paths) > k {
		paths = paths[:k]
	}
	return paths
}

// FormatPaths renders a timing-summary style listing.
func FormatPaths(paths []Path) string {
	var b strings.Builder
	b.WriteString("WORST TIMING PATHS (wire + logic, congestion-aware)\n")
	for i, p := range paths {
		name := "<structural>"
		if p.Net != nil {
			name = p.Net.Name
		}
		fmt.Fprintf(&b, "%2d. %-40s -> %-28s total %6.2f ns (wire %5.2f, logic %5.2f, %d tiles, worst util %.0f%%)\n",
			i+1, name, p.Sink.Name, p.TotalNS, p.WireNS, p.LogicNS, p.Length, 100*p.MaxUtil)
	}
	return b.String()
}
