package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// testScale keeps every run under a second: 1 000-2 000 keys, 300 arrivals
// per rung.
const testScale = 0.01

// runs caches results so that tests share them: each (workload, traced,
// repeat) is executed once per test binary.
var runs struct {
	sync.Mutex
	dir  string
	done map[string]*result
}

func cachedRun(t *testing.T, workload string, traced bool, repeat int) *result {
	t.Helper()
	runs.Lock()
	defer runs.Unlock()
	if runs.done == nil {
		dir, err := os.MkdirTemp("", "bench-test")
		if err != nil {
			t.Fatal(err)
		}
		runs.dir, runs.done = dir, map[string]*result{}
	}
	key := workload + map[bool]string{false: "/untraced/", true: "/traced/"}[traced] + string(rune('0'+repeat))
	if res, ok := runs.done[key]; ok {
		return res
	}
	out := filepath.Join(runs.dir, strings.ReplaceAll(key, "/", "-"))
	res, err := run(config{Workload: workload, Seed: 7, Scale: testScale, Trace: traced, Out: out})
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	runs.done[key] = res
	return res
}

func TestMain(m *testing.M) {
	code := m.Run()
	if runs.dir != "" {
		os.RemoveAll(runs.dir)
	}
	os.Exit(code)
}

// TestSmoke runs all four workloads, untraced and traced: every output
// verifies, the result is stamped non-comparable, and each mode reports
// exactly its metric table, every end-to-end value positive.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := cachedRun(t, w.Name, traced, 0)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d", w.Name, traced, res.Attempted, res.Failed)
			}
			if res.Comparable {
				t.Errorf("%s: a run at scale %g must be stamped non-comparable", w.Name, testScale)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, table has %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s missing", w.Name, traced, d.Name)
				}
				if !traced && (v.NA || !(v.Value > 0) || math.IsInf(v.Value, 0)) {
					t.Errorf("%s: end-to-end %s = %v (na %v), want a positive number", w.Name, d.Name, v.Value, v.NA)
				}
			}
		}
	}
}

// TestLastLine checks the one JSON object the builder's driver reads.
func TestLastLine(t *testing.T) {
	var buf bytes.Buffer
	cachedRun(t, "get-flash", false, 0).print(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("last line lacks %q", k)
		}
	}
	if len(line) != 4 {
		t.Errorf("last line has %d keys, want exactly 4", len(line))
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		m := metrics[d.Name]
		if len(m) != 2 || m["unit"] != d.Unit {
			t.Errorf("metric %s = %v, want exactly value and unit %q", d.Name, m, d.Unit)
		}
	}
}

// TestPerLayerCoverage: every per-layer metric has a value on at least one
// workload (the one it is mapped to).
func TestPerLayerCoverage(t *testing.T) {
	for _, d := range perLayer {
		covered := false
		for _, w := range workloads {
			covered = covered || !cachedRun(t, w.Name, true, 0).Metrics[d.Name].NA
		}
		if !covered {
			t.Errorf("%s has a value on no workload", d.Name)
		}
	}
}

// TestDeterminism: the same seed gives the same virtual metrics, bit for
// bit, on a second run and on a traced run. The serialized-engine
// workloads must agree exactly; wire-cluster runs free and is exempt.
func TestDeterminism(t *testing.T) {
	for _, w := range []string{"get-flash", "put-churn", "txn-mixed"} {
		a := cachedRun(t, w, false, 0)
		for what, b := range map[string]*result{"second run": cachedRun(t, w, false, 1), "traced run": cachedRun(t, w, true, 0)} {
			if !reflect.DeepEqual(a.Virtual, b.Virtual) {
				t.Errorf("%s: %s moved the virtual metrics:\n  %v\n  %v", w, what, a.Virtual, b.Virtual)
			}
		}
		if len(a.Virtual) < 6 {
			t.Errorf("%s: only %d virtual metrics recorded", w, len(a.Virtual))
		}
	}
}

// TestNames: every name is made of [A-Za-z0-9_.-], is used once, and
// BENCHMARK.json at the repository root is exactly what the tables
// generate.
func TestNames(t *testing.T) {
	ok := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if !ok.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("bad or repeated metric name %q", d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if !ok.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	want, err := json.MarshalIndent(contractFile(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	have, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(have), want) {
		t.Error("../BENCHMARK.json differs from `bench -contract`; regenerate it")
	}
}

// TestSpanTrees: in the trace file of every workload, every child span lies
// inside its parent on both clocks, shares its request id, and no root has
// negative self time.
func TestSpanTrees(t *testing.T) {
	for _, w := range workloads {
		cachedRun(t, w.Name, true, 0)
		path := filepath.Join(runs.dir, w.Name+"-traced-0", "trace-"+w.Name+".jsonl")
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		type rec struct {
			ID, Span, Parent int64
			Name, Phase      string
			V0, V1, W0, W1   int64
		}
		byIndex := map[int64]rec{}
		var all []rec
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var r rec
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			byIndex[r.Span] = r
			all = append(all, r)
		}
		f.Close()
		if len(all) < 100 {
			t.Fatalf("%s: only %d spans in the trace file", w.Name, len(all))
		}
		children := map[int64]int64{}
		for _, r := range all {
			if r.V1 < r.V0 || r.W1 < r.W0 {
				t.Fatalf("%s: span %d (%s) ends before it starts", w.Name, r.Span, r.Name)
			}
			if r.Parent < 0 {
				continue
			}
			p, ok := byIndex[r.Parent]
			if !ok {
				t.Fatalf("%s: span %d names a parent %d that is not in the file", w.Name, r.Span, r.Parent)
			}
			if p.ID != r.ID || r.V0 < p.V0 || r.V1 > p.V1 || r.W0 < p.W0 || r.W1 > p.W1 {
				t.Fatalf("%s: span %+v is not inside its parent %+v", w.Name, r, p)
			}
			children[r.Parent] += r.W1 - r.W0
		}
		for _, r := range all {
			if r.Parent < 0 && r.W1-r.W0 < children[r.Span] {
				t.Fatalf("%s: root span %d has negative self time", w.Name, r.Span)
			}
		}
	}
}

// TestCompare: a suite passes against itself and fails, naming metric and
// workload, against a copy with one metric worsened past its bound; a pair
// whose recorded spread exceeds the bound is unresolved, not a failure.
func TestCompare(t *testing.T) {
	base := suite{Host: thisHost(), Scale: 1, Comparable: true, Seeds: []int64{1, 2, 3}, Workloads: map[string]suiteWorkload{}}
	for _, w := range workloads {
		sw := suiteWorkload{Attempted: 1000, EndToEnd: map[string]summary{}, PerLayer: map[string]summary{}}
		for _, d := range endToEnd {
			sw.EndToEnd[d.Name] = summarize(d.Unit, []float64{100, 100.5, 101}, false)
		}
		base.Workloads[w.Name] = sw
	}
	dir := t.TempDir()
	write := func(name string, edit func(s *suite)) string {
		var s suite
		b, _ := json.Marshal(base)
		if err := json.Unmarshal(b, &s); err != nil {
			t.Fatal(err)
		}
		edit(&s)
		path := filepath.Join(dir, name)
		if err := writeJSON(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	same := write("base.json", func(*suite) {})
	var out bytes.Buffer
	if ok, err := compareFiles(&out, same, same); err != nil || !ok {
		t.Fatalf("self-compare failed (%v):\n%s", err, out.String())
	}

	worse := write("worse.json", func(s *suite) {
		s.Workloads["put-churn"].EndToEnd["write_amp"] = summarize("ratio", []float64{120, 120.5, 121}, false)
	})
	out.Reset()
	ok, err := compareFiles(&out, same, worse)
	if err != nil || ok {
		t.Fatalf("a 20%% worse write_amp passed (%v)", err)
	}
	if !strings.Contains(out.String(), "REGRESSION: write_amp on put-churn") {
		t.Errorf("regression not named:\n%s", out.String())
	}
	if strings.Count(out.String(), "REGRESSION") != 1 {
		t.Errorf("want exactly one regression:\n%s", out.String())
	}

	noisy := write("noisy.json", func(s *suite) {
		s.Workloads["get-flash"].EndToEnd["virt_body_us"] = summarize("us", []float64{90, 120, 150}, false)
	})
	out.Reset()
	if ok, err := compareFiles(&out, same, noisy); err != nil || !ok || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a pair wider than its bound must be unresolved and must not fail (ok %v, err %v):\n%s", ok, err, out.String())
	}

	failing := write("failing.json", func(s *suite) {
		w := s.Workloads["txn-mixed"]
		w.Failed = 1
		s.Workloads["txn-mixed"] = w
	})
	out.Reset()
	if ok, _ := compareFiles(&out, same, failing); ok || !strings.Contains(out.String(), "failed share rose on txn-mixed") {
		t.Errorf("a risen failed share must fail:\n%s", out.String())
	}
}

// TestOracle exercises the read rule under overlapping writers.
func TestOracle(t *testing.T) {
	val := func(key, version uint64) []byte {
		v := make([]byte, stampLen)
		stamp(v, key, version)
		return v
	}
	o := newOracle(4)
	a := o.begin(1)
	o.finish(1, a, true)
	fl := o.floorOf(1)
	if !o.check(1, fl, val(1, a)) {
		t.Error("the acknowledged version must verify")
	}
	if o.check(1, fl, val(2, a)) || o.check(1, fl, val(1, 99)) || o.check(1, fl, nil) {
		t.Error("a foreign key, a version never issued and an empty value must not verify")
	}

	// b is issued first and stalls; c is issued while b is in flight and is
	// acknowledged first. The device may apply them in either order, so
	// after both are acknowledged b (older, but overlapping the floor) and c
	// are both legal; a (completed before c was issued) is stale.
	b := o.begin(1)
	c := o.begin(1)
	o.finish(1, c, true)
	o.finish(1, b, true)
	fl = o.floorOf(1)
	if fl.version != c {
		t.Fatalf("floor = %d, want the highest acknowledged version %d", fl.version, c)
	}
	if !o.check(1, fl, val(1, c)) || !o.check(1, fl, val(1, b)) {
		t.Error("both overlapping writes are legal outcomes")
	}
	if o.check(1, fl, val(1, a)) {
		t.Error("a write completed before the floor was issued is stale")
	}

	// A cancelled write never raises the floor; a later sequential write
	// makes everything before it stale.
	d := o.begin(1)
	o.finish(1, d, false)
	if o.floorOf(1).version != c {
		t.Error("a failed write must not become the floor")
	}
	e := o.begin(1)
	o.finish(1, e, true)
	fl = o.floorOf(1)
	if o.check(1, fl, val(1, b)) || o.check(1, fl, val(1, c)) || !o.check(1, fl, val(1, e)) {
		t.Error("after a sequential write only that write is legal")
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(xs, n=4), which the builder's driver uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{5, 1, 3})
	if q1 != 1 || q2 != 3 || q3 != 5 {
		t.Errorf("quartiles of three = %v %v %v, want 1 3 5", q1, q2, q3)
	}
}
