package matrixsampler

// Checkpoint state export/import for the row sampler, consumed by the
// sample/snap codec. The exported state is complete — the update
// clock, every instance's reservoir position/offset/skip schedule, the
// shared row table, and the raw PCG state — so a restored sampler
// continues both its update stream and its query coin stream
// bit-for-bit.
//
// The row table's reference counts are not exported: they are
// recomputed from the instances at import and the import fails if the
// two disagree (a row with no referencing instance, or an instance
// pointing at a missing row).

import (
	"fmt"
	"sort"
)

// InstanceState is one reservoir instance's complete exportable state.
// Offset is nil exactly when the instance has not sampled a position
// yet (Pos == 0).
type InstanceState struct {
	Row    int64
	Col    int
	Pos    int64
	W      float64
	Next   int64
	Offset []int64
}

// RowState is one shared row table entry: the tracked row index and
// the accumulated update vector since first tracked.
type RowState struct {
	Row int64
	Vec []int64
}

// State is the row sampler's complete exportable state.
type State struct {
	RngHi, RngLo uint64
	T            int64
	Insts        []InstanceState
	Rows         []RowState
}

// ExportState captures the sampler's full state. Rows are exported
// sorted by row index so encoding a given sampler is deterministic.
func (s *Sampler) ExportState() State {
	st := State{T: s.t, Insts: make([]InstanceState, len(s.insts))}
	st.RngHi, st.RngLo = s.src.State()
	for i, inst := range s.insts {
		is := InstanceState{Row: inst.row, Col: inst.col, Pos: inst.pos,
			W: inst.w, Next: inst.next}
		if inst.pos != 0 {
			is.Offset = append([]int64(nil), inst.offset...)
		}
		st.Insts[i] = is
	}
	st.Rows = make([]RowState, 0, len(s.rows))
	for row, re := range s.rows {
		st.Rows = append(st.Rows, RowState{Row: row, Vec: append([]int64(nil), re.vec...)})
	}
	sort.Slice(st.Rows, func(a, b int) bool { return st.Rows[a].Row < st.Rows[b].Row })
	return st
}

// ImportState overwrites the sampler's state with a previously
// exported one. The sampler must have been constructed with the same
// measure, column count and instance count.
func (s *Sampler) ImportState(st State) error {
	if st.T < 0 {
		return fmt.Errorf("matrixsampler: negative stream position %d", st.T)
	}
	if len(st.Insts) != len(s.insts) {
		return fmt.Errorf("matrixsampler: state has %d instances, sampler has %d",
			len(st.Insts), len(s.insts))
	}
	rows := make(map[int64]*rowEntry, len(st.Rows))
	for i, rs := range st.Rows {
		if i > 0 && rs.Row <= st.Rows[i-1].Row {
			return fmt.Errorf("matrixsampler: row table not strictly sorted at row %d", rs.Row)
		}
		if len(rs.Vec) != s.d {
			return fmt.Errorf("matrixsampler: row %d vector has %d columns, sampler has %d",
				rs.Row, len(rs.Vec), s.d)
		}
		for c, x := range rs.Vec {
			if x < 0 || x > st.T {
				return fmt.Errorf("matrixsampler: row %d column %d count %d outside [0, %d]",
					rs.Row, c, x, st.T)
			}
		}
		rows[rs.Row] = &rowEntry{vec: append([]int64(nil), rs.Vec...)}
	}
	insts := make([]instance, len(st.Insts))
	for i, is := range st.Insts {
		if is.Pos < 0 || is.Pos > st.T {
			return fmt.Errorf("matrixsampler: instance %d position %d outside [0, %d]",
				i, is.Pos, st.T)
		}
		if is.Pos == 0 {
			// Never sampled: the constructor's idle shape, no offset, no
			// tracked row.
			if is.Offset != nil || is.Row != -1 || is.Col != 0 {
				return fmt.Errorf("matrixsampler: idle instance %d carries sampled state", i)
			}
		} else {
			re, ok := rows[is.Row]
			if !ok {
				return fmt.Errorf("matrixsampler: instance %d references untracked row %d",
					i, is.Row)
			}
			if is.Col < 0 || is.Col >= s.d {
				return fmt.Errorf("matrixsampler: instance %d column %d outside [0, %d)",
					i, is.Col, s.d)
			}
			if len(is.Offset) != s.d {
				return fmt.Errorf("matrixsampler: instance %d offset has %d columns, sampler has %d",
					i, len(is.Offset), s.d)
			}
			for c, x := range is.Offset {
				if x < 0 || x > re.vec[c] {
					return fmt.Errorf("matrixsampler: instance %d offset[%d]=%d outside [0, %d]",
						i, c, x, re.vec[c])
				}
			}
			re.refs++
		}
		if !(is.W > 0 && is.W <= 1) {
			return fmt.Errorf("matrixsampler: instance %d reservoir weight %v outside (0, 1]", i, is.W)
		}
		if is.Next <= st.T {
			// Process fires every instance whose schedule is due, so
			// between updates every skip target is strictly in the future.
			return fmt.Errorf("matrixsampler: instance %d next position %d not in the future (t=%d)",
				i, is.Next, st.T)
		}
		insts[i] = instance{row: is.Row, col: is.Col, pos: is.Pos, w: is.W, next: is.Next}
		if is.Pos != 0 {
			insts[i].offset = append([]int64(nil), is.Offset...)
		}
	}
	for row, re := range rows {
		if re.refs == 0 {
			return fmt.Errorf("matrixsampler: row %d tracked by no instance", row)
		}
	}
	s.src.SetState(st.RngHi, st.RngLo)
	s.t, s.insts, s.rows = st.T, insts, rows
	return nil
}

// Columns returns d, the sampler's column count.
func (s *Sampler) Columns() int { return s.d }

// Instances returns the instance count r the sampler was built with.
func (s *Sampler) InstanceCount() int { return len(s.insts) }

// Trial runs the rejection step of instance i with the supplied coin:
// it returns the instance's tracked row and whether the acceptance
// coin (drawn from flip) came up heads. An instance that has not
// sampled a position yet rejects deterministically. Trial never
// touches the sampler's own PCG — the cross-snapshot merge
// (sample/snap) drives instances of several decoded samplers from one
// shared coin stream. It is the matrix counterpart of
// core.GSampler.TrialsGroupAppend, which flips each pool's own coins.
func (s *Sampler) Trial(i int, flip func(p float64) bool) (int64, bool) {
	inst := &s.insts[i]
	if inst.pos == 0 {
		return 0, false
	}
	zeta := s.g.Zeta()
	v := make([]int64, s.d)
	cur := s.rows[inst.row].vec
	for c := 0; c < s.d; c++ {
		v[c] = cur[c] - inst.offset[c]
	}
	gv := s.g.G(v)
	v[inst.col]++
	acc := (s.g.G(v) - gv) / zeta
	if acc > 1+1e-9 {
		panic("matrixsampler: invalid zeta")
	}
	return inst.row, flip(acc)
}
