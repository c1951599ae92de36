package features

import (
	"fmt"

	"repro/internal/hls"
	"repro/internal/ir"
)

// The feature registry is populated once at init time. The layout follows
// Table II of the paper; the total is asserted to be exactly NumFeatures
// (302) so any edit that changes the count fails loudly.
func init() {
	registerBitwidth()
	registerInterconnect()
	registerResource()
	registerTiming()
	registerResourceDT()
	registerOpType()
	registerGlobal()
	if len(registry) != NumFeatures {
		panic(fmt.Sprintf("features: registry has %d features, want %d", len(registry), NumFeatures))
	}
}

func registerBitwidth() {
	register("bitwidth", CatBitwidth, func(e *Extractor, c *opCtx) float64 {
		return float64(c.op.Bitwidth)
	})
}

func registerInterconnect() {
	reg := func(name string, f func(*Extractor, *opCtx) float64) {
		register("ic_"+name, CatInterconnect, f)
	}
	reg("fanin", func(e *Extractor, c *opCtx) float64 { return float64(c.self.fanIn) })
	reg("fanout", func(e *Extractor, c *opCtx) float64 { return float64(c.self.fanOut) })
	reg("fan_sum", func(e *Extractor, c *opCtx) float64 {
		return float64(c.self.fanIn + c.self.fanOut)
	})
	reg("num_preds", func(e *Extractor, c *opCtx) float64 { return float64(len(c.node.In)) })
	reg("num_succs", func(e *Extractor, c *opCtx) float64 { return float64(len(c.node.Out)) })
	reg("num_neighbors", func(e *Extractor, c *opCtx) float64 {
		return float64(len(c.node.In) + len(c.node.Out))
	})
	reg("max_edge_wires", func(e *Extractor, c *opCtx) float64 { return float64(c.maxEdgeWires) })
	reg("max_edge_frac_fanin", func(e *Extractor, c *opCtx) float64 { return c.maxEdgeFracIn })
	reg("max_edge_frac_fanout", func(e *Extractor, c *opCtx) float64 { return c.maxEdgeFracOut })
	reg("avg_in_edge_wires", func(e *Extractor, c *opCtx) float64 {
		return safeDiv(float64(c.self.fanIn), float64(len(c.node.In)))
	})
	reg("avg_out_edge_wires", func(e *Extractor, c *opCtx) float64 {
		return safeDiv(float64(c.self.fanOut), float64(len(c.node.Out)))
	})
	reg("port_neighbors_1hop", func(e *Extractor, c *opCtx) float64 { return c.both1.kinds[ir.KindPort] })
	reg("num_preds_2hop", func(e *Extractor, c *opCtx) float64 { return float64(len(c.n2pred)) })
	reg("num_succs_2hop", func(e *Extractor, c *opCtx) float64 { return float64(len(c.n2succ)) })
	reg("num_neighbors_2hop", func(e *Extractor, c *opCtx) float64 { return float64(len(c.n2both)) })
	reg("edge_total_2hop", func(e *Extractor, c *opCtx) float64 { return float64(c.edge2Total) })
	reg("edge_count_2hop", func(e *Extractor, c *opCtx) float64 { return float64(c.edge2Count) })
	reg("edge_max_2hop", func(e *Extractor, c *opCtx) float64 { return float64(c.edge2Max) })
	reg("edge_max_frac_2hop", func(e *Extractor, c *opCtx) float64 {
		return safeDiv(float64(c.edge2Max), float64(c.edge2Total))
	})
	reg("fanin_2hop", func(e *Extractor, c *opCtx) float64 { return c.pred2.fanIn })
	reg("fanout_2hop", func(e *Extractor, c *opCtx) float64 { return c.succ2.fanOut })
	reg("port_neighbors_2hop", func(e *Extractor, c *opCtx) float64 { return c.both2.kinds[ir.KindPort] })
}

func registerResource() {
	for t := 0; t < hls.ResourceTypeCount; t++ {
		t := t
		tn := hls.ResourceTypeNames[t]
		reg := func(name string, f func(*Extractor, *opCtx) float64) {
			register(fmt.Sprintf("res_%s_%s", tn, name), CatResource, f)
		}
		reg("usage", func(e *Extractor, c *opCtx) float64 { return c.self.res[t] })
		reg("util_dev", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.self.res[t], e.devRes[t])
		})
		reg("util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.self.res[t], c.fi.res[t])
		})
		reg("pred_total", func(e *Extractor, c *opCtx) float64 { return c.pred1.res[t] })
		reg("succ_total", func(e *Extractor, c *opCtx) float64 { return c.succ1.res[t] })
		reg("predsucc_sum", func(e *Extractor, c *opCtx) float64 {
			return c.pred1.res[t] + c.succ1.res[t]
		})
		reg("pred_util_dev", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.pred1.res[t], e.devRes[t])
		})
		reg("succ_util_dev", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.succ1.res[t], e.devRes[t])
		})
		reg("pred_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.pred1.res[t], c.fi.res[t])
		})
		reg("succ_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.succ1.res[t], c.fi.res[t])
		})
		reg("max_nbr", func(e *Extractor, c *opCtx) float64 { return c.both1.max[t] })
		reg("max_nbr_frac", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.both1.max[t], c.both1.res[t])
		})
		reg("pred2_total", func(e *Extractor, c *opCtx) float64 { return c.pred2.res[t] })
		reg("succ2_total", func(e *Extractor, c *opCtx) float64 { return c.succ2.res[t] })
		reg("sum2", func(e *Extractor, c *opCtx) float64 {
			return c.pred2.res[t] + c.succ2.res[t]
		})
		reg("pred2_util_dev", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.pred2.res[t], e.devRes[t])
		})
		reg("succ2_util_dev", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.succ2.res[t], e.devRes[t])
		})
		reg("pred2_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.pred2.res[t], c.fi.res[t])
		})
		reg("succ2_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.succ2.res[t], c.fi.res[t])
		})
		reg("max_nbr2", func(e *Extractor, c *opCtx) float64 { return c.both2.max[t] })
		reg("max_nbr2_frac", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.both2.max[t], c.both2.res[t])
		})
		reg("both2_total", func(e *Extractor, c *opCtx) float64 { return c.both2.res[t] })
		reg("both2_util_dev", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.both2.res[t], e.devRes[t])
		})
		reg("both2_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.both2.res[t], c.fi.res[t])
		})
	}
}

func registerTiming() {
	register("timing_delay_ns", CatTiming, func(e *Extractor, c *opCtx) float64 {
		return c.char.DelayNS
	})
	register("timing_latency_cycles", CatTiming, func(e *Extractor, c *opCtx) float64 {
		return float64(c.char.Latency)
	})
	register("timing_start_state", CatTiming, func(e *Extractor, c *opCtx) float64 {
		return float64(c.slot.Start)
	})
	register("timing_finish_delay_ns", CatTiming, func(e *Extractor, c *opCtx) float64 {
		return c.slot.FinishDelay
	})
}

func registerResourceDT() {
	for t := 0; t < hls.ResourceTypeCount; t++ {
		t := t
		tn := hls.ResourceTypeNames[t]
		reg := func(name string, f func(*Extractor, *opCtx) float64) {
			register(fmt.Sprintf("dt_%s_%s", tn, name), CatResourceDT, f)
		}
		reg("pred_sum", func(e *Extractor, c *opCtx) float64 { return c.dt.predSum[t] })
		reg("succ_sum", func(e *Extractor, c *opCtx) float64 { return c.dt.succSum[t] })
		reg("sum", func(e *Extractor, c *opCtx) float64 { return c.dt.predSum[t] + c.dt.succSum[t] })
		reg("pred_max", func(e *Extractor, c *opCtx) float64 { return c.dt.predMax[t] })
		reg("succ_max", func(e *Extractor, c *opCtx) float64 { return c.dt.succMax[t] })
		reg("pred_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.dt.predSum[t], c.fi.res[t])
		})
		reg("succ_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.dt.succSum[t], c.fi.res[t])
		})
		reg("pred2_sum", func(e *Extractor, c *opCtx) float64 { return c.dt.pred2Sum[t] })
		reg("succ2_sum", func(e *Extractor, c *opCtx) float64 { return c.dt.succ2Sum[t] })
		reg("sum2", func(e *Extractor, c *opCtx) float64 { return c.dt.pred2Sum[t] + c.dt.succ2Sum[t] })
		reg("pred2_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.dt.pred2Sum[t], c.fi.res[t])
		})
		reg("succ2_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.dt.succ2Sum[t], c.fi.res[t])
		})
	}
}

func registerOpType() {
	for _, k := range ir.AllKinds() {
		k := k
		register(fmt.Sprintf("type_is_%s", k), CatOpType, func(e *Extractor, c *opCtx) float64 {
			if c.op.Kind == k {
				return 1
			}
			return 0
		})
	}
	for _, k := range ir.AllKinds() {
		k := k
		register(fmt.Sprintf("type_nbr1_%s", k), CatOpType, func(e *Extractor, c *opCtx) float64 {
			return c.both1.kinds[k]
		})
	}
	for _, k := range ir.AllKinds() {
		k := k
		register(fmt.Sprintf("type_nbr2_%s", k), CatOpType, func(e *Extractor, c *opCtx) float64 {
			return c.both2.kinds[k]
		})
	}
}

func registerGlobal() {
	reg := func(name string, f func(*Extractor, *opCtx) float64) {
		register("glob_"+name, CatGlobal, f)
	}
	for t := 0; t < hls.ResourceTypeCount; t++ {
		t := t
		reg("top_"+hls.ResourceTypeNames[t], func(e *Extractor, c *opCtx) float64 {
			return e.topInfo.res[t]
		})
	}
	for t := 0; t < hls.ResourceTypeCount; t++ {
		t := t
		reg("fop_"+hls.ResourceTypeNames[t], func(e *Extractor, c *opCtx) float64 {
			return c.fi.res[t]
		})
	}
	for t := 0; t < hls.ResourceTypeCount; t++ {
		t := t
		reg("fop_frac_"+hls.ResourceTypeNames[t], func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.fi.res[t], e.topInfo.res[t])
		})
	}
	reg("target_period_ns", func(e *Extractor, c *opCtx) float64 { return e.Sched.Clock.PeriodNS })
	reg("clock_uncertainty_ns", func(e *Extractor, c *opCtx) float64 { return e.Sched.Clock.UncertaintyNS })
	reg("est_clock_top_ns", func(e *Extractor, c *opCtx) float64 { return e.topInfo.estClock })
	reg("est_clock_fop_ns", func(e *Extractor, c *opCtx) float64 { return c.fi.estClock })
	reg("latency_top_cycles", func(e *Extractor, c *opCtx) float64 { return float64(e.topInfo.latency) })
	reg("latency_fop_cycles", func(e *Extractor, c *opCtx) float64 { return float64(c.fi.latency) })
	memFields := []struct {
		name string
		get  func(*funcInfo) float64
	}{
		{"words", func(fi *funcInfo) float64 { return fi.memWords }},
		{"banks", func(fi *funcInfo) float64 { return fi.memBanks }},
		{"bits", func(fi *funcInfo) float64 { return fi.memBits }},
		{"primitives", func(fi *funcInfo) float64 { return fi.memPrims }},
	}
	for _, mf := range memFields {
		mf := mf
		reg("mem_fop_"+mf.name, func(e *Extractor, c *opCtx) float64 { return mf.get(c.fi) })
	}
	for _, mf := range memFields {
		mf := mf
		reg("mem_top_"+mf.name, func(e *Extractor, c *opCtx) float64 { return mf.get(e.topInfo) })
	}
	muxFields := []struct {
		name string
		get  func(hls.MuxStats) float64
	}{
		{"count", func(m hls.MuxStats) float64 { return float64(m.Count) }},
		{"lut", func(m hls.MuxStats) float64 { return float64(m.Res.LUT) }},
		{"avg_inputs", func(m hls.MuxStats) float64 { return m.AvgInputs }},
		{"avg_width", func(m hls.MuxStats) float64 { return m.AvgWidth }},
	}
	for _, mf := range muxFields {
		mf := mf
		reg("mux_fop_"+mf.name, func(e *Extractor, c *opCtx) float64 { return mf.get(c.fi.mux) })
	}
	for _, mf := range muxFields {
		mf := mf
		reg("mux_top_"+mf.name, func(e *Extractor, c *opCtx) float64 { return mf.get(e.topInfo.mux) })
	}
	reg("num_live_funcs", func(e *Extractor, c *opCtx) float64 {
		return float64(e.nLive)
	})
}
