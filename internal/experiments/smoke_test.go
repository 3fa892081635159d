package experiments

import (
	"fmt"
	"testing"
)

func TestSmokeFig6(t *testing.T) {
	for _, tb := range Fig6(0.2) {
		fmt.Println(tb.Render())
	}
}

func TestSmokeFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for _, tb := range Fig5(0.15) {
		fmt.Println(tb.Render())
	}
}

func TestSmokeFig78(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for _, tb := range Fig7(0.15) {
		fmt.Println(tb.Render())
	}
	fmt.Println(Fig8(0.15).Render())
}

func TestSmokeFig9(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	fmt.Println(Fig9(0.2).Render())
}

func TestSmokeFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	fmt.Println(Fig10(0.2).Render())
	fmt.Println(Conflicts(0.2).Render())
}

// A preloaded table sits at the load factor its row is labelled with: the
// table rounds its capacity up to a power of two, and the preload takes its
// key count from the rounded capacity (Fig 5a's Get@0.7 once measured a
// table at load 0.37).
func TestPreloadReachesItsLoadFactor(t *testing.T) {
	for _, load := range microLoads {
		r := newKAMLRig(microFlash(), nil)
		r.eng.Go("main", func() {
			defer r.dev.Close()
			ns, keys, err := kamlPreload(r, 300, 512, load)
			if err != nil {
				t.Errorf("load %.1f: preload: %v", load, err)
				return
			}
			lf, err := r.dev.IndexLoadFactor(ns)
			if err != nil || lf < load-0.02 || lf > load+0.02 {
				t.Errorf("a table preloaded with %d keys for load %.1f sits at load %.3f (%v)", keys, load, lf, err)
			}
		})
		r.eng.Wait()
	}
}

// The index ablation reads every key of each table once, so its cells are
// the tables' mean Get latency: two runs print the same table, and so do two
// scales.
func TestAblationIndexKindIsRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	a, b := AblationIndexKind(0.1), AblationIndexKind(1)
	if fmt.Sprint(a.Rows) != fmt.Sprint(b.Rows) {
		t.Errorf("two runs of the index ablation differ:\n%s\n%s", a.Render(), b.Render())
	}
	t.Log("\n" + a.Render())
}
