package circuit

// Schedule is the level decomposition of a circuit, the structure the
// paper exploits for parallelism: gates at the same dependence level have
// no data dependences between them (every producer of a level-k gate sits
// at a level strictly below k), so a level can be garbled or evaluated by
// any number of workers concurrently. The schedule also precomputes the
// table-stream watermarks that let a level-synchronous garbler and
// evaluator overlap garbling, transfer and evaluation while keeping the
// wire format (tables in gate order) unchanged.
type Schedule struct {
	// Free[k] lists the indices (into c.Gates) of the XOR/INV gates at
	// level k+1, in gate order.
	Free [][]int32
	// AND[k] lists the indices of the AND gates at level k+1, in gate
	// order.
	AND [][]int32
	// ANDIndex[i] is the table-stream index of gate i — the position of
	// its table in the gate-order table stream and the value of its hash
	// tweak — or -1 for free gates.
	ANDIndex []int32
	// NumAND is the total number of AND gates (tables).
	NumAND int
	// EmitReady[k] is the length of the longest table-stream prefix that
	// is fully garbled once levels 1..k+1 are complete: every table in
	// that prefix belongs to a gate at level <= k+1. A level-synchronous
	// garbler can flush exactly this prefix after finishing level k+1.
	EmitReady []int
	// NeedTables[k] is the number of leading stream tables the evaluator
	// must hold before level k+1 can be evaluated: 1 + the largest stream
	// index of any AND gate at level <= k+1 (0 if none).
	NeedTables []int
}

// NumLevels returns the number of levels in the schedule.
func (s *Schedule) NumLevels() int { return len(s.Free) }

// LevelSchedule builds the level decomposition from the dependence-graph
// leveling in Levels. It is O(gates) and allocates two int32 slices per
// level plus the per-gate index arrays.
func (c *Circuit) LevelSchedule() *Schedule {
	return c.levelScheduleFrom(c.Levels())
}

// levelScheduleFrom is LevelSchedule over a leveling the caller already
// holds, so passes that level the graph for their own use (the plan
// builder) do not re-level it for the schedule.
func (c *Circuit) levelScheduleFrom(levels []int) *Schedule {
	maxLevel := 0
	for _, l := range levels {
		if l > maxLevel {
			maxLevel = l
		}
	}
	// Carve the per-level lists out of one backing array per kind, sized
	// by a counting pass: appends never reallocate, and building a
	// schedule allocates a fixed number of times however deep the
	// circuit is.
	freeCount := make([]int, maxLevel)
	andCount := make([]int, maxLevel)
	nAND := 0
	for i := range c.Gates {
		if c.Gates[i].Op == AND {
			andCount[levels[i]-1]++
			nAND++
		} else {
			freeCount[levels[i]-1]++
		}
	}
	s := &Schedule{
		Free:       bucketLists[int32](freeCount, len(c.Gates)-nAND),
		AND:        bucketLists[int32](andCount, nAND),
		ANDIndex:   make([]int32, len(c.Gates)),
		EmitReady:  make([]int, maxLevel),
		NeedTables: make([]int, maxLevel),
	}

	// tableLevel[t] is the level of the AND gate whose table occupies
	// stream position t.
	tableLevel := make([]int32, 0, nAND)
	for i := range c.Gates {
		k := levels[i] - 1
		if c.Gates[i].Op == AND {
			s.ANDIndex[i] = int32(s.NumAND)
			s.AND[k] = append(s.AND[k], int32(i))
			tableLevel = append(tableLevel, int32(levels[i]))
			s.NumAND++
		} else {
			s.ANDIndex[i] = -1
			s.Free[k] = append(s.Free[k], int32(i))
		}
	}

	// EmitReady: sweep the stream once; the ready prefix after level k+1
	// ends at the first table whose gate sits above that level.
	// prefixMax[t] = max level among tables 0..t is nondecreasing, so a
	// single pointer sweep per level suffices.
	ptr := 0
	prefixMax := int32(0)
	for k := 0; k < maxLevel; k++ {
		for ptr < s.NumAND {
			if tableLevel[ptr] > prefixMax {
				prefixMax = tableLevel[ptr]
			}
			if prefixMax > int32(k+1) {
				break
			}
			ptr++
		}
		s.EmitReady[k] = ptr
	}

	// NeedTables: highest stream index used by any level <= k+1.
	need := 0
	for k := 0; k < maxLevel; k++ {
		for _, gi := range s.AND[k] {
			if idx := int(s.ANDIndex[gi]) + 1; idx > need {
				need = idx
			}
		}
		s.NeedTables[k] = need
	}
	return s
}
