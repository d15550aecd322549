package main

import (
	"context"
	"errors"
	"os/exec"
	"testing"
)

func TestFreePortsDistinct(t *testing.T) {
	ports, err := freePorts(64)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, p := range ports {
		if seen[p] {
			t.Fatalf("port %d picked twice in %v", p, ports)
		}
		seen[p] = true
	}
}

// A child that exits at once, as one whose port was taken does, makes
// launch try again and then report errExited.
func TestLaunchExitedChild(t *testing.T) {
	bin, err := exec.LookPath("false")
	if err != nil {
		t.Skip("no false binary")
	}
	f, err := launch(context.Background(), fleetConfig{bin: bin, dir: t.TempDir(), nodes: 2, agg: true})
	if f != nil || !errors.Is(err, errExited) {
		t.Fatalf("launch = %v, %v; want nil, errExited", f, err)
	}
}
