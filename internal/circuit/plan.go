package circuit

import (
	"fmt"
	"sync/atomic"
)

// Plan is a precompiled execution plan for a circuit: the gate list
// renamed from the write-once wire space onto a compact physical slot
// space of width ≈ peak-live wires, together with the cached level
// schedule. It is the software analogue of the paper's renaming pass
// (§3.1.4): wires are mapped into a small dense space and dead wires
// are evicted so the working set of a run is the circuit's peak-live
// width, not its total wire count.
//
// A Plan is immutable after construction and safe for concurrent use by
// any number of executions; build it once per circuit and share it.
type Plan struct {
	// Circuit is the source circuit. The plan does not modify it.
	Circuit *Circuit

	// Gates is the renamed gate list: same length, order and ops as
	// Circuit.Gates, with A/B/C rewritten to slot indices in
	// [0, NumSlots). For INV gates B is set equal to A.
	//
	// The renamed list is only valid under level-ordered execution via
	// Schedule (levels in order, any order inside a level): a slot whose
	// wire dies at level j is recycled by a gate at some level k > j,
	// and that gate may sit *earlier* in the gate list than the dead
	// wire's last reader. Executing Gates in plain gate order would
	// overwrite slots that are still live.
	Gates []Gate

	// NumSlots is the width of the physical slot space — the label-arena
	// length an executor needs. Input-like wire w occupies slot w at the
	// start of execution (inputs are renamed to themselves), so input
	// labels can be copied into the arena front verbatim.
	NumSlots int

	// OutputSlots[i] is the slot holding Circuit.Outputs[i] at the end of
	// execution. Output slots are never recycled, so they remain valid
	// whenever execution finishes.
	OutputSlots []Wire

	// Schedule is the circuit's level schedule, built once here so plan
	// executors never recompute it. Its gate indices are valid for both
	// Circuit.Gates and the renamed Gates (the order is identical).
	Schedule *Schedule

	// PeakLive is the maximum number of simultaneously live wires across
	// the level-ordered execution: inputs plus every wire written so far,
	// minus wires whose last reader has completed. The renamer achieves
	// exactly this width (NumSlots == PeakLive).
	PeakLive int
}

// planBuilds counts NewPlan calls; a test hook for asserting that plan
// reuse paths (haac.Precompile and friends) compile once per circuit.
var planBuilds atomic.Uint64

// PlanBuilds returns the number of plans built by this process.
func PlanBuilds() uint64 { return planBuilds.Load() }

// NewPlan validates the circuit, runs the last-use liveness pass and the
// slot-renaming pass, and returns the reusable plan. Both passes are
// O(gates).
//
// Renaming respects level boundaries: a slot whose wire dies at level k
// (its last reader runs at level k) is reused only by gates at levels
// strictly greater than k. Level-synchronous executors — sequential
// level-ordered loops as well as parallel worker pools with a barrier
// per level — therefore never race a write against a read of the same
// slot inside a level.
func NewPlan(c *Circuit) (*Plan, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	planBuilds.Add(1)

	levels := c.Levels()
	maxLevel := 0
	for _, l := range levels {
		if l > maxLevel {
			maxLevel = l
		}
	}
	nin := c.NumInputs()

	// Last-use liveness. lastUse[w] is the level of the last gate reading
	// wire w; primary outputs are pinned live forever (sentinel past the
	// deepest level); a wire nobody reads dies at its own write level, so
	// its slot recycles one level after it is produced.
	const neverDies = int32(1) << 30
	writeLevel := make([]int32, c.NumWires)
	lastUse := make([]int32, c.NumWires)
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Op != XOR && g.Op != AND && g.Op != INV {
			return nil, fmt.Errorf("circuit: gate %d has unknown op %d", i, g.Op)
		}
		l := int32(levels[i])
		writeLevel[g.C] = l
		if lastUse[g.A] < l {
			lastUse[g.A] = l
		}
		if g.Op != INV && lastUse[g.B] < l {
			lastUse[g.B] = l
		}
	}
	for w := range lastUse {
		if lastUse[w] < writeLevel[w] {
			lastUse[w] = writeLevel[w]
		}
	}
	for _, o := range c.Outputs {
		lastUse[o] = neverDies
	}

	// Bucket gates and wire deaths by level for the single renaming sweep.
	// Gates keep gate order inside a level; deaths keep wire order — both
	// choices only pin the (deterministic) slot assignment.
	// Both bucketings carve their per-level lists out of one backing
	// array sized by a counting pass, so a plan build allocates a fixed
	// number of times however deep the circuit is.
	gateCount := make([]int, maxLevel+1)
	for i := range c.Gates {
		gateCount[levels[i]]++
	}
	gatesAt := bucketLists[int32](gateCount, len(c.Gates))
	for i := range c.Gates {
		gatesAt[levels[i]] = append(gatesAt[levels[i]], int32(i))
	}
	// dyingLevel reports the level at which wire w's slot dies, or -1
	// for a wire that never frees one. Gap wires — Validate permits
	// wires nothing writes or reads — own no slot, so they must not
	// enter the death buckets: freeing their zero-valued slot[w] would
	// recycle input slot 0 while it is still live.
	dyingLevel := func(w int) int {
		if w >= nin && writeLevel[w] == 0 {
			return -1
		}
		if l := lastUse[w]; l != neverDies && int(l) <= maxLevel {
			return int(l)
		}
		return -1
	}
	deathCount := make([]int, maxLevel+1)
	deaths := 0
	for w := 0; w < c.NumWires; w++ {
		if l := dyingLevel(w); l >= 0 {
			deathCount[l]++
			deaths++
		}
	}
	diesAt := bucketLists[Wire](deathCount, deaths)
	for w := 0; w < c.NumWires; w++ {
		if l := dyingLevel(w); l >= 0 {
			diesAt[l] = append(diesAt[l], Wire(w))
		}
	}

	p := &Plan{
		Circuit:  c,
		Gates:    make([]Gate, len(c.Gates)),
		Schedule: c.levelScheduleFrom(levels),
	}

	// Renaming sweep. Inputs occupy slots [0, nin) — the identity map —
	// so executors load input labels with a single copy. free is a LIFO
	// stack: the most recently vacated slot is the hottest in cache.
	slot := make([]Wire, c.NumWires)
	for w := 0; w < nin; w++ {
		slot[w] = Wire(w)
	}
	nextSlot := nin
	free := make([]Wire, 0, nin)
	live, peak := nin, nin
	for k := 1; k <= maxLevel; k++ {
		// Slots that died at level k-1 become reusable now — never
		// earlier, preserving the level-boundary rule.
		for _, w := range diesAt[k-1] {
			free = append(free, slot[w])
		}
		live -= len(diesAt[k-1])
		for _, gi := range gatesAt[k] {
			g := &c.Gates[gi]
			var s Wire
			if n := len(free); n > 0 {
				s = free[n-1]
				free = free[:n-1]
			} else {
				s = Wire(nextSlot)
				nextSlot++
			}
			slot[g.C] = s
			rg := Gate{Op: g.Op, A: slot[g.A], C: s}
			if g.Op != INV {
				rg.B = slot[g.B]
			} else {
				rg.B = rg.A
			}
			p.Gates[gi] = rg
		}
		live += len(gatesAt[k])
		if live > peak {
			peak = live
		}
	}

	p.NumSlots = nextSlot
	p.PeakLive = peak
	p.OutputSlots = make([]Wire, len(c.Outputs))
	for i, o := range c.Outputs {
		p.OutputSlots[i] = slot[o]
	}
	return p, nil
}

// bucketLists returns one empty list per count, each with capacity
// counts[k], carved from a single backing array of total elements.
func bucketLists[T any](counts []int, total int) [][]T {
	back := make([]T, total)
	lists := make([][]T, len(counts))
	off := 0
	for k, n := range counts {
		lists[k] = back[off : off : off+n]
		off += n
	}
	return lists
}
