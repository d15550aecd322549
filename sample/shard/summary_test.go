package shard

import (
	"bytes"
	"testing"

	"repro/internal/rng"
	"repro/internal/stream"
)

// Summary reads the plan local queries share: a summary after a local
// query moves no epoch and no coin and lists in-budget acceptances, a
// cut drops the plan so the next summary builds and materializes a new
// plan instance (and bumps the epoch), a narrower summary reuses it,
// and none of it splits the mixture RNG — a checkpoint taken after
// summaries restores into a coordinator whose queries continue the
// original's bit for bit.
func TestCoordinatorSummary(t *testing.T) {
	gen := stream.NewGenerator(rng.New(31))
	items := gen.Zipf(64, 4000, 1.2)
	c := NewLp(2, 64, 1<<14, 0.2, 3, Config{Shards: 2, Queries: 6})
	defer c.Close()

	empty, _, err := c.Summary(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Groups) != 2 || empty.Lens[0]+empty.Lens[1] != 0 || len(empty.Groups[0][0]) != 0 {
		t.Fatalf("empty coordinator summary: %d groups, masses %v", len(empty.Groups), empty.Lens)
	}

	c.ProcessBatch(items)
	c.SampleK(2)
	e0 := c.Epoch()
	sum, epoch, err := c.Summary(2)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != e0 || c.Epoch() != e0 {
		t.Fatalf("summary of a current plan moved the epoch %d → %d", e0, c.Epoch())
	}
	if len(sum.Groups) != 2 || sum.Lens[0]+sum.Lens[1] != int64(len(items)) {
		t.Fatalf("summary: %d groups, masses %v", len(sum.Groups), sum.Lens)
	}
	if !sum.Covers(2) || sum.Covers(3) {
		t.Fatal("Covers disagrees with the group count")
	}
	// Every pool-group's acceptances lie inside the trial budget, in
	// order, with after-counts inside the pool's mass.
	for q, group := range sum.Groups {
		for j, accs := range group {
			prev := -1
			for _, a := range accs {
				if a.At <= prev || a.At >= c.Trials() || a.AfterCount < 0 || a.AfterCount >= sum.Lens[j] {
					t.Fatalf("group %d pool %d: acceptance %+v after index %d", q, j, a, prev)
				}
				prev = a.At
			}
		}
	}
	if _, err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// The cut dropped the plan: the next summary builds another.
	wider, epoch, err := c.Summary(4)
	if err != nil {
		t.Fatal(err)
	}
	if wider.SamePlan(sum) || len(wider.Groups) != 4 || epoch == e0 {
		t.Fatalf("summary after a cut: same plan %v, %d groups, epoch %d (was %d)",
			wider.SamePlan(sum), len(wider.Groups), epoch, e0)
	}
	narrow, again, err := c.Summary(1)
	if err != nil {
		t.Fatal(err)
	}
	if !narrow.SamePlan(wider) || again != epoch || len(narrow.Groups) != 4 {
		t.Fatal("a narrower summary of a current plan did not reuse it")
	}
	// Checkpoint after the summaries and restore: summaries never split
	// the mixture RNG, so both sides' next queries agree.
	cut, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreCoordinator(cut)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for round := 0; round < 3; round++ {
		a, na := c.SampleK(6)
		b, nb := r.SampleK(6)
		if na != nb || len(a) != len(b) {
			t.Fatalf("round %d: %d vs %d draws", round, na, nb)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round %d draw %d: original %+v, restored %+v", round, i, a[i], b[i])
			}
		}
	}
	got, _ := c.Snapshot()
	want, _ := r.Snapshot()
	if !bytes.Equal(got, want) {
		t.Fatal("post-query snapshots differ")
	}
}
