package fault

import (
	"repro/internal/simtime"
	"repro/internal/xrand"
)

// CorruptionEvent records one ground-truth corruption, for the simulator's
// truth accounting. Detection experiments compare what detectors found
// against this record.
type CorruptionEvent struct {
	Defect *Defect
	Op     OpClass
	Seq    uint64 // per-core operation sequence number (TotalOps at the op)
}

// Core is the fault-model view of one CPU core: an optional set of defects
// plus the state (operating point, age) that modulates them. A healthy core
// simply has no defects; its Decide path is a few branches.
//
// Core also keeps ground-truth counters: how many operations of each class
// executed and how many were corrupted. These are the denominators and
// numerators for the §4 metrics.
type Core struct {
	ID string
	// Defects is fixed at NewCore, which computes the armed-op mask from
	// it: appending to a live core's defects, or changing one's Unit,
	// would leave their ops unarmed. Build a new core to change the set.
	Defects []Defect
	Point   OperatingPoint
	Age     simtime.Time

	rng *xrand.RNG

	// OpCount and CorruptCount index by OpClass.
	OpCount      [NumOpClasses]uint64
	CorruptCount [NumOpClasses]uint64

	// armed has bit op set when some defect sits on op's unit. Decide
	// pays for the defect loop only on armed ops; a healthy core has
	// armed == 0.
	armed uint16
	// armedUnits holds the units some defect sits on: the units of the
	// ops in armed.
	armedUnits UnitSet

	// OnCorrupt, if non-nil, observes every ground-truth corruption.
	OnCorrupt func(CorruptionEvent)

	// Per-defect activation rates cached for the current (Point, Age).
	// Rate is a pure function of (defect, point, age) but costs an exp and
	// often a pow; recomputing it on every operation dominated screening
	// sessions. The cache is revalidated by value comparison when a defect
	// triggers, so direct writes to the exported Point/Age fields
	// (operating-point sweeps, daily aging) invalidate it without any
	// bookkeeping at the write sites. Cached values are the exact floats
	// Rate returns, so the Bernoulli draw sequence is bit-identical with
	// and without the cache.
	rates   []float64
	ratePt  OperatingPoint
	rateAge simtime.Time
	rateOK  bool
}

// NewCore returns a core with the given defects (copied) and its own
// deterministic random stream.
func NewCore(id string, rng *xrand.RNG, defects ...Defect) *Core {
	c := &Core{
		ID:      id,
		Defects: append([]Defect(nil), defects...),
		Point:   Nominal,
		rng:     rng.ForkString("core:" + id),
	}
	for op, u := range unitOf {
		for i := range c.Defects {
			if c.Defects[i].Unit == u {
				c.armed |= 1 << op
				c.armedUnits |= 1 << u
			}
		}
	}
	return c
}

// The armed mask needs one bit per op class: this fails to compile once
// NumOpClasses outgrows it.
const _ = uint16(1 << (NumOpClasses - 1))

// Healthy reports whether the core has no defects at all.
func (c *Core) Healthy() bool { return len(c.Defects) == 0 }

// Mercurial reports whether the core carries at least one defect that is
// past onset at the core's current age (i.e. currently able to fire).
func (c *Core) Mercurial() bool {
	for i := range c.Defects {
		if c.Age >= c.Defects[i].Onset {
			return true
		}
	}
	return false
}

// Decide is the engine's hook: it accounts one operation of class op with
// first operand a, and returns the defect that fires for it, or nil.
// At most one defect fires per operation (defects are checked in order).
//
// Decide inlines into the engine's per-operation dispatch: a healthy core
// and an op whose unit carries no defect both return after one mask test;
// only armed ops call decideDefective.
func (c *Core) Decide(op OpClass, a uint64) *Defect {
	c.OpCount[op]++
	if c.armed>>op&1 == 0 {
		return nil
	}
	return c.decideDefective(op, a)
}

// Armed reports whether a defect sits on op's unit, that is, whether an
// operation of class op can ever be corrupted on this core. Bulk paths
// that issue only unarmed ops may compute natively and add their op
// counts in one step: Decide would return nil for every one of them
// without drawing a random number. Armed inlines like Decide.
func (c *Core) Armed(op OpClass) bool { return c.armed>>op&1 != 0 }

// UnitSet is a set of execution units: bit u holds Unit u.
type UnitSet uint8

// The set needs one bit per unit: this fails to compile once numUnits
// outgrows it.
const _ = UnitSet(1 << (numUnits - 1))

// SetOf returns the set holding units.
func SetOf(units ...Unit) UnitSet {
	var s UnitSet
	for _, u := range units {
		s |= 1 << u
	}
	return s
}

// AnyArmed reports whether a defect sits on any unit in s. A workload
// whose units are all unarmed may run natively and add its op counts
// itself: Decide would return nil for every op it issues without drawing
// a random number. AnyArmed inlines like Armed.
func (c *Core) AnyArmed(s UnitSet) bool { return c.armedUnits&s != 0 }

// decideDefective checks each defect against one armed operation, unit
// and pattern first, and validates the rate cache only for a defect that
// triggers. The decision sequence per defect is the reference one — the
// Bernoulli draw happens iff the defect triggers and 0 < rate < 1 — so
// the RNG stream is identical to an uncached loop over every defect.
func (c *Core) decideDefective(op OpClass, a uint64) *Defect {
	for i := range c.Defects {
		d := &c.Defects[i]
		if !d.Triggers(op, a) {
			continue
		}
		if !c.rateOK || c.Point != c.ratePt || c.Age != c.rateAge {
			c.refreshRates()
		}
		r := c.rates[i]
		if r <= 0 {
			continue
		}
		if r < 1 && !c.rng.Bernoulli(r) {
			continue
		}
		c.CorruptCount[op]++
		if c.OnCorrupt != nil {
			c.OnCorrupt(CorruptionEvent{Defect: d, Op: op, Seq: c.TotalOps()})
		}
		return d
	}
	return nil
}

// refreshRates recomputes the cached per-defect rates for the current
// (Point, Age).
func (c *Core) refreshRates() {
	if cap(c.rates) < len(c.Defects) {
		c.rates = make([]float64, len(c.Defects))
	}
	c.rates = c.rates[:len(c.Defects)]
	for i := range c.Defects {
		c.rates[i] = c.Defects[i].Rate(c.Point, c.Age)
	}
	c.ratePt, c.rateAge, c.rateOK = c.Point, c.Age, true
}

// TotalOps returns the total operations executed across all classes.
func (c *Core) TotalOps() uint64 {
	var t uint64
	for _, v := range c.OpCount {
		t += v
	}
	return t
}

// TotalCorruptions returns the total ground-truth corruptions.
func (c *Core) TotalCorruptions() uint64 {
	var t uint64
	for _, v := range c.CorruptCount {
		t += v
	}
	return t
}

// ObservedRate returns corruptions per operation over everything executed
// so far, or 0 if nothing ran.
func (c *Core) ObservedRate() float64 {
	ops := c.TotalOps()
	if ops == 0 {
		return 0
	}
	return float64(c.TotalCorruptions()) / float64(ops)
}
