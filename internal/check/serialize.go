package check

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// CheckHistory runs every checker over a recorded history and returns the
// violations found (empty = the history is explainable).
//
// The pipeline:
//
//  1. per-key linearizability: each (root namespace, key) history must be
//     explainable against a single register, with power-loss writes free to
//     take effect or vanish (checkKey);
//  2. snapshot self-consistency: two reads of one key through one snapshot
//     must agree — per-key search alone would happily linearize them at two
//     different instants inside the snapshot's window;
//  3. batch atomicity across keys: if any write of a power-loss batch was
//     observed, the batch must be applicable on EVERY key it touched — a
//     key whose history refutes the forced apply proves a torn batch;
//  4. serializability: multi-record batches, committed transactions, and
//     snapshots become nodes of a direct serialization graph whose
//     version orders come from the per-key linearization witnesses, plus
//     real-time edges (strict serializability). A cycle is a violation.
//
// Step 4 seeds its version orders from the per-key witnesses, but before a
// cycle is reported every participating WW/RW edge is re-verified to be
// FORCED by the observations (no witness with the reversed order exists) —
// see checkGraph. A reported cycle is therefore a genuine contradiction;
// single-record Puts without graph nodes may still hide an edge, so step 4
// is conservative about what it reports, never about step 1, which is
// exact.
func CheckHistory(events []Event) []Violation {
	m := buildModel(events)
	vs := append([]Violation(nil), m.violations...)

	// 2. Snapshot self-consistency (before the heavier searches: a torn
	// snapshot often still passes per-key checks).
	type snapKeyObs struct {
		node int
		k    nsKey
	}
	snapObs := make(map[snapKeyObs]map[uint64][]uint64) // -> tag -> event IDs
	for k, ops := range m.keys {
		for _, op := range ops {
			if !op.read || op.node < 0 || m.nodes[op.node].kind != nodeSnap {
				continue
			}
			sk := snapKeyObs{node: op.node, k: k}
			if snapObs[sk] == nil {
				snapObs[sk] = make(map[uint64][]uint64)
			}
			snapObs[sk][op.tag] = append(snapObs[sk][op.tag], op.ev)
		}
	}
	snapKeys := make([]snapKeyObs, 0, len(snapObs))
	for sk := range snapObs {
		snapKeys = append(snapKeys, sk)
	}
	sort.Slice(snapKeys, func(i, j int) bool {
		if snapKeys[i].node != snapKeys[j].node {
			return snapKeys[i].node < snapKeys[j].node
		}
		if snapKeys[i].k.ns != snapKeys[j].k.ns {
			return snapKeys[i].k.ns < snapKeys[j].k.ns
		}
		return snapKeys[i].k.key < snapKeys[j].k.key
	})
	for _, sk := range snapKeys {
		if len(snapObs[sk]) > 1 {
			vs = append(vs, Violation{
				Kind: "snapshot",
				Detail: fmt.Sprintf("snapshot (event #%d) returned different values for ns%d key %d: %s",
					m.nodes[sk.node].ev, sk.k.ns, sk.k.key, m.describeTags(snapObs[sk])),
			})
		}
	}

	// 1. Per-key linearizability.
	witnesses := make(map[nsKey][]int)
	for _, k := range m.sortedKeys() {
		res, w := checkKey(m.keys[k], 0)
		switch res {
		case keyViolation:
			vs = append(vs, Violation{
				Kind: "linearizability",
				Detail: fmt.Sprintf("no linearization explains ns%d key %d:\n%s",
					k.ns, k.key, m.formatKeyOps(k)),
			})
		case keyInconclusive:
			vs = append(vs, Violation{
				Kind:   "inconclusive",
				Detail: fmt.Sprintf("per-key search budget exhausted on ns%d key %d", k.ns, k.key),
			})
		default:
			witnesses[k] = w
		}
	}

	// 3. Batch atomicity for maybe-batches whose effects were observed.
	observed := make(map[uint64]uint64) // tag -> witnessing read event
	for _, ops := range m.keys {
		for _, op := range ops {
			if op.read && op.tag != 0 {
				if _, ok := observed[op.tag]; !ok {
					observed[op.tag] = op.ev
				}
			}
		}
	}
	// Maybe-writes whose tag some read observed are pinned applied in every
	// search from here on: an observed batch must be applied on all its keys
	// (step 3 checks exactly that), so the edge-reversal searches in step 4
	// may not quietly discard their other writes.
	forcedMaybes := make(map[uint64]struct{})
	for _, ops := range m.keys {
		for _, op := range ops {
			if !op.read && op.maybe {
				if _, ok := observed[op.tag]; ok {
					forcedMaybes[op.ev] = struct{}{}
				}
			}
		}
	}
	for _, mb := range m.maybes {
		var seenTag, seenBy uint64
		for tag := range mb.tags {
			if ev, ok := observed[tag]; ok && (seenTag == 0 || tag < seenTag) {
				seenTag, seenBy = tag, ev
			}
		}
		if seenTag == 0 {
			continue // nothing observed: vanishing whole is consistent
		}
		keys := make([]nsKey, 0, len(mb.tags))
		dedup := make(map[nsKey]struct{})
		for _, k := range mb.tags {
			if _, ok := dedup[k]; !ok {
				dedup[k] = struct{}{}
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].ns != keys[j].ns {
				return keys[i].ns < keys[j].ns
			}
			return keys[i].key < keys[j].key
		})
		for _, k := range keys {
			res, _ := checkKey(m.keys[k], mb.ev)
			if res == keyViolation {
				vs = append(vs, Violation{
					Kind: "batch-atomicity",
					Detail: fmt.Sprintf(
						"batch event #%d was observed (tag %d seen by event #%d) but cannot have been applied on ns%d key %d — partially applied batch:\n%s",
						mb.ev, seenTag, seenBy, k.ns, k.key, m.formatKeyOps(k)),
				})
			} else if res == keyInconclusive {
				vs = append(vs, Violation{
					Kind:   "inconclusive",
					Detail: fmt.Sprintf("atomicity search budget exhausted on ns%d key %d (batch #%d)", k.ns, k.key, mb.ev),
				})
			}
		}
	}

	// 4. Serializability: direct serialization graph from the witnesses.
	vs = append(vs, m.checkGraph(witnesses, forcedMaybes)...)
	return vs
}

// FormatViolations renders a violation list for reports and test logs.
func FormatViolations(vs []Violation) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, "[%s] %s\n", v.Kind, v.Detail)
	}
	return b.String()
}

// arc is one edge of the serialization graph: its target, whether it is
// forced (see checkGraph), and a human reason.
type arc struct {
	to     int
	hard   bool
	reason string
}

// graph is the serialization graph's adjacency, indexed by node. While it is
// built an edge may be added more than once; seal leaves one arc per edge.
type graph [][]arc

// add appends the edge from -> to unless it is a self-loop or names no node,
// and reports whether it did.
func (g graph) add(from, to int, reason string, hard bool) bool {
	if from == to || from < 0 || to < 0 {
		return false
	}
	g[from] = append(g[from], arc{to: to, hard: hard, reason: reason})
	return true
}

// seal sorts each node's arcs by target and merges the copies of an edge
// into the first one added: its reason wins, and it is hard if any copy was.
func (g graph) seal() {
	for u, arcs := range g {
		slices.SortStableFunc(arcs, func(a, b arc) int { return cmp.Compare(a.to, b.to) })
		out := arcs[:0]
		for _, a := range arcs {
			if n := len(out); n > 0 && out[n-1].to == a.to {
				out[n-1].hard = out[n-1].hard || a.hard
				continue
			}
			out = append(out, a)
		}
		g[u] = out
	}
}

// edgePin records why one WW/RW edge exists: on key k, the witness applied
// write aIdx's version before write bIdx's (aIdx == forbidInitial for a read
// of the initial absent state). The edge is FORCED iff no witness with the
// opposite order exists.
type edgePin struct {
	k          nsKey
	aIdx, bIdx int
}

// checkGraph builds WR/WW/RW edges from each key's linearization witness,
// adds real-time edges between node intervals, and reports any strongly
// connected component with more than one node.
//
// The witnesses are ONE valid linearization per key, so a WW or RW edge may
// reflect an arbitrary tie-break rather than an order the observations
// force — two overlapping batches on two shared keys can legitimately come
// back in opposite witness orders. Before a cycle is reported, every in-SCC
// WW/RW edge is therefore re-verified by a constrained per-key search for a
// witness with the opposite version order (observed maybe-writes pinned
// applied); edges whose reversal succeeds are soft and dropped, and only
// cycles of forced edges (plus always-forced WR and real-time edges)
// survive. A reported cycle is thus a genuine contradiction; dropping soft
// edges can in principle hide a cycle only realizable by a *combination* of
// per-key orders, so the check stays slightly incomplete, never unsound.
func (m *model) checkGraph(witnesses map[nsKey][]int, forcedMaybes map[uint64]struct{}) []Violation {
	type ekey [2]int
	edges := make(graph, len(m.nodes))
	pins := make(map[ekey][]edgePin)
	addSoft := func(from, to int, reason string, p edgePin) {
		if edges.add(from, to, reason, false) {
			pins[ekey{from, to}] = append(pins[ekey{from, to}], p)
		}
	}
	for _, k := range m.sortedKeys() {
		w, ok := witnesses[k]
		if !ok {
			continue
		}
		ops := m.keys[k]
		prevWriter := -1               // node of the write that produced the current version
		prevWriterIdx := forbidInitial // op index of that write
		type reader struct{ node, srcIdx int }
		var readers []reader
		for _, entry := range w {
			if entry < 0 {
				continue // discarded maybe-write: no effect
			}
			op := &ops[entry]
			if op.read {
				// A read of tag t identifies its writer uniquely, so WR
				// edges are observation-forced.
				edges.add(prevWriter, op.node,
					fmt.Sprintf("WR on ns%d k%d", k.ns, k.key), true)
				if op.node >= 0 {
					readers = append(readers, reader{op.node, prevWriterIdx})
				}
				continue
			}
			for _, r := range readers {
				// r read the version op overwrote; the edge flips iff op's
				// write could be ordered before the version r read.
				addSoft(r.node, op.node, fmt.Sprintf("RW on ns%d k%d", k.ns, k.key),
					edgePin{k: k, aIdx: r.srcIdx, bIdx: entry})
			}
			addSoft(prevWriter, op.node, fmt.Sprintf("WW on ns%d k%d", k.ns, k.key),
				edgePin{k: k, aIdx: prevWriterIdx, bIdx: entry})
			prevWriter, prevWriterIdx = op.node, entry
			readers = readers[:0]
		}
	}
	// Real-time edges: A finished before B started.
	for a := range m.nodes {
		for b := range m.nodes {
			if a != b && m.nodes[a].end < m.nodes[b].start {
				edges.add(a, b, "real-time order", true)
			}
		}
	}
	edges.seal()

	// Refutation loop: drop in-SCC edges whose version order is not forced,
	// until the cycles that remain (if any) consist of forced edges only.
	forcedEdge := func(ek ekey) bool {
		for _, p := range pins[ek] {
			res, _ := checkKeyConstrained(m.keys[p.k], forcedMaybes, p.aIdx, p.bIdx)
			if res == keyViolation {
				return true // no reversed witness: this order is forced
			}
		}
		return false
	}
	inSCC := make([]bool, len(m.nodes))
	mark := func(scc []int, in bool) {
		for _, n := range scc {
			inSCC[n] = in
		}
	}
	for {
		dropped := false
		for _, scc := range tarjanSCC(edges) {
			if len(scc) < 2 {
				continue
			}
			sort.Ints(scc)
			mark(scc, true)
			for _, u := range scc {
				kept := edges[u][:0]
				for _, a := range edges[u] {
					if inSCC[a.to] && !a.hard {
						if !forcedEdge(ekey{u, a.to}) {
							dropped = true
							continue
						}
						a.hard = true
					}
					kept = append(kept, a)
				}
				edges[u] = kept
			}
			mark(scc, false)
		}
		if !dropped {
			break
		}
	}

	var vs []Violation
	for _, scc := range tarjanSCC(edges) {
		if len(scc) < 2 {
			continue
		}
		sort.Ints(scc)
		var b strings.Builder
		fmt.Fprintf(&b, "serialization cycle among %d nodes:\n", len(scc))
		mark(scc, true)
		for _, n := range scc {
			fmt.Fprintf(&b, "  %s\n", m.describeNode(n))
			for _, a := range edges[n] {
				if inSCC[a.to] {
					fmt.Fprintf(&b, "    -> node(event #%d): %s\n", m.nodes[a.to].ev, a.reason)
				}
			}
		}
		mark(scc, false)
		vs = append(vs, Violation{Kind: "serializability", Detail: b.String()})
	}
	return vs
}

// tarjanSCC returns the strongly connected components of the graph,
// following each node's arcs in order of their targets.
func tarjanSCC(edges graph) [][]int {
	n := len(edges)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var (
		stack []int
		next  int
		out   [][]int
	)
	var strong func(v int)
	strong = func(v int) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, a := range edges[v] {
			w := a.to
			if index[w] == -1 {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			out = append(out, comp)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == -1 {
			strong(v)
		}
	}
	return out
}

func (m *model) describeNode(n int) string {
	node := m.nodes[n]
	kind := map[nodeKind]string{nodeBatch: "batch", nodeTxn: "txn", nodeSnap: "snapshot"}[node.kind]
	if node.kind == nodeTxn {
		return fmt.Sprintf("%s %d (commit event #%d)", kind, node.txn, node.ev)
	}
	return fmt.Sprintf("%s (event #%d)", kind, node.ev)
}

func (m *model) describeTags(tags map[uint64][]uint64) string {
	keys := make([]uint64, 0, len(tags))
	for t := range tags {
		keys = append(keys, t)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	parts := make([]string, 0, len(keys))
	for _, t := range keys {
		parts = append(parts, fmt.Sprintf("tag %d (events %v)", t, tags[t]))
	}
	return strings.Join(parts, " vs ")
}

// formatKeyOps renders the events behind one key's history for reports.
func (m *model) formatKeyOps(k nsKey) string {
	seen := make(map[uint64]struct{})
	var evs []Event
	for _, op := range m.keys[k] {
		if _, ok := seen[op.ev]; ok {
			continue
		}
		seen[op.ev] = struct{}{}
		if ev := m.byID[op.ev]; ev != nil {
			evs = append(evs, *ev)
		}
	}
	return FormatEvents(evs)
}
