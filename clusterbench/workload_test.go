package main

import (
	"testing"
	"time"

	"repro/internal/wire"
)

// TestRequestHashReproducible: the request sequence is a function of
// the seed alone.
func TestRequestHashReproducible(t *testing.T) {
	for _, w := range workloads {
		a := generate(w, 7, 3*time.Second, time.Second).hash()
		b := generate(w, 7, 3*time.Second, time.Second).hash()
		c := generate(w, 8, 3*time.Second, time.Second).hash()
		if a != b {
			t.Errorf("%s: same seed, hashes %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 share hash %s", w.name, a)
		}
	}
}

// TestInputsPartitionedAndShaped: every ingest batch holds only items
// that hash to its node (the partition snap.Merge requires), and the
// seed renames items without reshaping which node owns which rank.
func TestInputsPartitionedAndShaped(t *testing.T) {
	for _, w := range workloads {
		in := generate(w, 3, 2*time.Second, time.Second)
		check := func(ops []op) {
			for _, o := range ops {
				if o.kind.class() != classIngest {
					continue
				}
				for _, it := range o.items {
					if it < 0 || it >= universe || nodeOf(it, w.nodes) != o.node {
						t.Fatalf("%s: item %d in a batch for node%d", w.name, it, o.node)
					}
				}
				if o.kind == opIngestBinary {
					got, err := wire.DecodeItemsFrame(nil, o.body)
					if err != nil || len(got) != len(o.items) {
						t.Fatalf("%s: binary body decodes to %d items, %v", w.name, len(got), err)
					}
				}
			}
		}
		for _, ops := range in.preload {
			check(ops)
		}
		for _, p := range in.plans {
			check(p.open)
			check(p.closed)
		}
	}
	g1, g2 := newGen(1, 3), newGen(2, 3)
	for r := range g1.perm {
		if a, b := nodeOf(g1.perm[r], 3), nodeOf(g2.perm[r], 3); a != b {
			t.Fatalf("rank %d: node%d under seed 1, node%d under seed 2", r, a, b)
		}
	}
}
