package kaml

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The structural rules: deleted second copies stay deleted, and the firmware
// blocks only on sim primitives woken by their events. Each rule is checked
// against the syntax trees of every Go file of the repository (bench/
// included, read only), so an identifier named in a comment or a string
// trips nothing, and each rule also checks a fixture that breaks it.

// srcFile is one parsed Go file.
type srcFile struct {
	path string // slash-separated, relative to the repository root
	fset *token.FileSet
	file *ast.File
}

// scope selects the files a rule reads.
type scope struct {
	paths   []string // directory trees or files, relative to the root; none: the whole tree
	noTests bool     // leave _test.go files out
	except  string   // a file base name left out wherever it is
}

// under reports whether p is one of trees or lies inside one.
func under(p string, trees []string) bool {
	return slices.ContainsFunc(trees, func(q string) bool { return p == q || strings.HasPrefix(p, q+"/") })
}

func (s scope) has(p string) bool {
	if s.noTests && strings.HasSuffix(p, "_test.go") || s.except != "" && path.Base(p) == s.except {
		return false
	}
	return len(s.paths) == 0 || under(p, s.paths)
}

var (
	whole       = scope{}
	nonTest     = scope{noTests: true}
	firmware    = scope{paths: []string{"internal/kamlssd"}}
	firmwareRun = scope{paths: []string{"internal/kamlssd"}, noTests: true}
	cmdqPkg     = scope{paths: []string{"internal/cmdq"}}
)

func files(paths ...string) scope { return scope{paths: paths} }

// matcher reports whether node n, inside the top-level function fn (nil
// outside one), is what a check looks for.
type matcher func(fn *ast.FuncDecl, n ast.Node) bool

// check returns a rule's violations among the files of its scope.
type check func(fs []srcFile) []string

// rule is one structural rule: every check must come back empty. bad lists
// fixtures — sources by path, replacing a file of the tree or added to it —
// that each break the rule.
type rule struct {
	name, why string
	sc        scope
	checks    []check
	bad       []map[string]string
}

// violations runs r over the files of its scope.
func (r rule) violations(tree []srcFile) []string {
	var in []srcFile
	for _, f := range tree {
		if r.sc.has(f.path) {
			in = append(in, f)
		}
	}
	var out []string
	for _, c := range r.checks {
		out = append(out, c(in)...)
	}
	return out
}

// walk calls visit for every node of fs with its top-level function.
func walk(fs []srcFile, visit func(f srcFile, fn *ast.FuncDecl, n ast.Node)) {
	for _, f := range fs {
		for _, d := range f.file.Decls {
			fn, _ := d.(*ast.FuncDecl)
			ast.Inspect(d, func(n ast.Node) bool {
				if n != nil {
					visit(f, fn, n)
				}
				return true
			})
		}
	}
}

func where(f srcFile, n ast.Node) string {
	return fmt.Sprintf("%s:%d", f.path, f.fset.Position(n.Pos()).Line)
}

// only narrows c to the files of its rule's scope under dir.
func only(dir string, c check) check {
	return func(fs []srcFile) []string {
		return c(slices.DeleteFunc(slices.Clone(fs), func(f srcFile) bool { return !under(f.path, []string{dir}) }))
	}
}

// besides narrows c to the files of its rule's scope outside the given
// directory trees and files.
func besides(c check, paths ...string) check {
	return func(fs []srcFile) []string {
		return c(slices.DeleteFunc(slices.Clone(fs), func(f srcFile) bool { return under(f.path, paths) }))
	}
}

// forbid flags every node that m matches.
func forbid(m matcher) check {
	return func(fs []srcFile) []string {
		var out []string
		walk(fs, func(f srcFile, fn *ast.FuncDecl, n ast.Node) {
			if m(fn, n) {
				out = append(out, where(f, n))
			}
		})
		return out
	}
}

// once requires exactly one node that m matches, in the function fn of
// file.
func once(m matcher, file, fn string) check {
	return func(fs []srcFile) []string {
		var at []string
		right := false
		walk(fs, func(f srcFile, d *ast.FuncDecl, n ast.Node) {
			if m(d, n) {
				at = append(at, where(f, n))
				right = f.path == file && funcIs(d, fn)
			}
		})
		if len(at) == 1 && right {
			return nil
		}
		return []string{fmt.Sprintf("%d found, want one in %s of %s: %v", len(at), fn, file, at)}
	}
}

// require asks for at least one node that m matches.
func require(what string, m matcher) check {
	return func(fs []srcFile) []string {
		found := false
		walk(fs, func(_ srcFile, fn *ast.FuncDecl, n ast.Node) { found = found || m(fn, n) })
		if found {
			return nil
		}
		return []string{"no " + what}
	}
}

// count asks for exactly n nodes that m matches.
func count(what string, n int, m matcher) check {
	return func(fs []srcFile) []string {
		var at []string
		walk(fs, func(f srcFile, fn *ast.FuncDecl, node ast.Node) {
			if m(fn, node) {
				at = append(at, where(f, node))
			}
		})
		if len(at) == n {
			return nil
		}
		return []string{fmt.Sprintf("%d %s, want %d: %v", len(at), what, n, at)}
	}
}

// dotted renders a name or a selector chain ("d.arr.ProgramPage"); the
// parts it cannot render are left out.
func dotted(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if x := dotted(e.X); x != "" {
			return x + "." + e.Sel.Name
		}
		return e.Sel.Name
	case *ast.ParenExpr:
		return dotted(e.X)
	case *ast.StarExpr:
		return dotted(e.X)
	case *ast.IndexExpr:
		if x := dotted(e.X); x != "" {
			return x + "[]"
		}
	case *ast.CallExpr:
		if x := dotted(e.Fun); x != "" {
			return x + "()"
		}
	}
	return ""
}

// funcIs reports whether fn is the function name, or "T.name" for a method
// of T.
func funcIs(fn *ast.FuncDecl, name string) bool {
	if fn == nil {
		return false
	}
	recv, method, ok := strings.Cut(name, ".")
	if !ok {
		return fn.Name.Name == name
	}
	return fn.Name.Name == method && fn.Recv != nil && dotted(fn.Recv.List[0].Type) == recv
}

// ident matches a name whose text matches the pattern, wherever it stands:
// a declaration, a use, a field or a selector's name.
func ident(re string) matcher {
	p := regexp.MustCompile(re)
	return func(_ *ast.FuncDecl, n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && p.MatchString(id.Name)
	}
}

// selector matches a selector chain whose text matches the pattern.
func selector(re string) matcher {
	p := regexp.MustCompile(re)
	return func(_ *ast.FuncDecl, n ast.Node) bool {
		s, ok := n.(*ast.SelectorExpr)
		return ok && p.MatchString(dotted(s))
	}
}

// call matches a call whose function's text matches the pattern.
func call(re string) matcher {
	p := regexp.MustCompile(re)
	return func(_ *ast.FuncDecl, n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		return ok && p.MatchString(dotted(c.Fun))
	}
}

// callWith matches a call as call does that passes an argument — a name,
// or a string literal anywhere inside one — whose text matches arg.
func callWith(fun, arg string) matcher {
	isCall, p := call(fun), regexp.MustCompile(arg)
	return func(fn *ast.FuncDecl, n ast.Node) bool {
		if !isCall(fn, n) {
			return false
		}
		found := false
		for _, a := range n.(*ast.CallExpr).Args {
			if id, ok := a.(*ast.Ident); ok && p.MatchString(id.Name) {
				return true
			}
			ast.Inspect(a, func(x ast.Node) bool {
				if lit, ok := x.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					s, _ := strconv.Unquote(lit.Value)
					found = found || p.MatchString(s)
				}
				return !found
			})
		}
		return found
	}
}

// panicWith matches a panic whose message text matches the pattern.
func panicWith(re string) matcher { return callWith(`^panic$`, re) }

// decl matches a function declaration whose name matches the pattern: a
// function without a receiver for recv "", a method of any type for "*",
// and a method of recv otherwise.
func decl(recv, re string) matcher {
	p := regexp.MustCompile(re)
	return func(_ *ast.FuncDecl, n ast.Node) bool {
		fn, ok := n.(*ast.FuncDecl)
		if !ok || !p.MatchString(fn.Name.Name) {
			return false
		}
		if recv == "" {
			return fn.Recv == nil
		}
		return fn.Recv != nil && (recv == "*" || dotted(fn.Recv.List[0].Type) == recv)
	}
}

// assigns matches an assignment, an op-assignment or an increment of a field
// whose name matches the pattern, indexed or not (lc.freeList[0] = b).
func assigns(re string) matcher {
	p := regexp.MustCompile(re)
	field := func(e ast.Expr) bool {
		for {
			switch x := e.(type) {
			case *ast.IndexExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			case *ast.SelectorExpr:
				return p.MatchString(x.Sel.Name)
			default:
				return false
			}
		}
	}
	return func(_ *ast.FuncDecl, n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			return slices.ContainsFunc(s.Lhs, field)
		case *ast.IncDecStmt:
			return field(s.X)
		}
		return false
	}
}

func isGo(_ *ast.FuncDecl, n ast.Node) bool { _, ok := n.(*ast.GoStmt); return ok }

func isChan(_ *ast.FuncDecl, n ast.Node) bool { _, ok := n.(*ast.ChanType); return ok }

// imports matches an import of the package path.
func imports(pkg string) matcher {
	return func(_ *ast.FuncDecl, n ast.Node) bool {
		s, ok := n.(*ast.ImportSpec)
		return ok && s.Path.Value == strconv.Quote(pkg)
	}
}

// inc matches an increment of a name or field whose text matches the
// pattern.
func inc(re string) matcher {
	p := regexp.MustCompile(re)
	return func(_ *ast.FuncDecl, n ast.Node) bool {
		s, ok := n.(*ast.IncDecStmt)
		return ok && s.Tok == token.INC && p.MatchString(dotted(s.X))
	}
}

// makeSlice matches make([]T, ...) for an element type whose text matches
// the pattern.
func makeSlice(re string) matcher {
	p := regexp.MustCompile(re)
	return func(_ *ast.FuncDecl, n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok || dotted(c.Fun) != "make" || len(c.Args) == 0 {
			return false
		}
		t, ok := c.Args[0].(*ast.ArrayType)
		return ok && t.Len == nil && p.MatchString(dotted(t.Elt))
	}
}

// loopCalling matches a for or range loop whose body calls a function whose
// text matches the pattern.
func loopCalling(re string) matcher {
	isCall := call(re)
	return func(fn *ast.FuncDecl, n ast.Node) bool {
		var body *ast.BlockStmt
		switch l := n.(type) {
		case *ast.ForStmt:
			body = l.Body
		case *ast.RangeStmt:
			body = l.Body
		default:
			return false
		}
		found := false
		ast.Inspect(body, func(x ast.Node) bool {
			found = found || x != nil && isCall(fn, x)
			return !found
		})
		return found
	}
}

func anyOf(ms ...matcher) matcher {
	return func(fn *ast.FuncDecl, n ast.Node) bool {
		return slices.ContainsFunc(ms, func(m matcher) bool { return m(fn, n) })
	}
}

// in narrows m to the nodes inside the named functions (see funcIs).
func in(m matcher, fns ...string) matcher {
	return func(fn *ast.FuncDecl, n ast.Node) bool {
		return slices.ContainsFunc(fns, func(name string) bool { return funcIs(fn, name) }) && m(fn, n)
	}
}

// outside narrows m to the nodes outside the named functions (see funcIs).
func outside(m matcher, fns ...string) matcher {
	return func(fn *ast.FuncDecl, n ast.Node) bool {
		return !slices.ContainsFunc(fns, func(name string) bool { return funcIs(fn, name) }) && m(fn, n)
	}
}

// src is a fixture of one file.
func src(path, code string) map[string]string { return map[string]string{path: code} }

var rules = []rule{
	{
		name: "deleted-second-copies",
		why:  "a deleted second copy is back",
		sc:   whole,
		checks: []check{forbid(ident(
			`TextClient|DialText|runOnDevice|cmdCreate|cmdPut|cmdGet|dialText|textConn|validateBatch|TestingSplitBatchCommit|splitCommit`))},
		bad: []map[string]string{
			src("internal/kvproto/text.go", "package kvproto\n\ntype TextClient struct{}\n"),
			src("internal/kamlssd/fixture_test.go", "package kamlssd\n\nfunc init() { TestingSplitBatchCommit = true }\n"),
		},
	},
	{
		name:   "no-addStat",
		why:    "addStat is gone: bump the component's telemetry cell directly",
		sc:     nonTest,
		checks: []check{forbid(ident(`addStat`))},
		bad:    []map[string]string{src("internal/cmdq/fixture.go", "package cmdq\n\nfunc f(p *Pipeline) { p.addStat(1) }\n")},
	},
	{
		name:   "no-flush-timer",
		why:    "the KAML flush timer is gone: seal on full, drain with Flush",
		sc:     whole,
		checks: []check{forbid(ident(`FlushPoll|packerBorn`))},
		bad:    []map[string]string{src("internal/kamlssd/fixture.go", "package kamlssd\n\ntype c struct{ FlushPoll int }\n")},
	},
	{
		name:   "no-gc-poll",
		why:    "the KAML GC poll is gone: wait on the log's gcCv / freeCv",
		sc:     whole,
		checks: []check{forbid(ident(`GCPoll`))},
		bad:    []map[string]string{src("options.go", "package kaml\n\nvar o = Options{GCPoll: 1}\n")},
	},
	{
		// TestSnapshotDuringGroupCommit names the KAML coalescer's group
		// commit, hence the scope.
		name: "wal-one-force-path",
		why:  "the WAL forces on one path: committers convoyed on its mutex share a flush",
		sc: files("internal/wal", "internal/shoremt", "internal/experiments",
			"internal/workload", "internal/bufferpool"),
		checks: []check{forbid(ident(`GroupCommit|groupCommitWindow`))},
		bad:    []map[string]string{src("internal/wal/fixture.go", "package wal\n\nconst groupCommitWindow = 5\n")},
	},
	{
		name:   "ftl-without-options",
		why:    "ftl.New(arr, ctrl) derives its sizes from the flash geometry; the rest are constants",
		sc:     whole,
		checks: []check{forbid(selector(`ftl\.DefaultConfig|ftl\.Config`))},
		bad:    []map[string]string{src("internal/experiments/fixture.go", "package experiments\n\nvar c = ftl.DefaultConfig()\n")},
	},
	{
		name:   "hashindex-one-table",
		why:    "hashindex has one table, ConcurrentTable: test against a map, not a second probe order",
		sc:     files("internal/hashindex"),
		checks: []check{forbid(anyOf(decl("", `^New$`), decl("Table", ``)))},
		bad: []map[string]string{
			src("internal/hashindex/table.go", "package hashindex\n\nfunc New(n int) *Table { return nil }\n"),
			src("internal/hashindex/table_test.go", "package hashindex\n\nfunc (t *Table) get(k uint64) {}\n"),
		},
	},
	{
		name: "gc-gain-in-pages",
		why:  "collectBlock leaves a victim that frees nothing unerased (frees, noGain); the watermarks are gcLowFree/gcHighFree",
		sc:   nonTest,
		checks: []check{forbid(anyOf(ident(`gcCapacityPages|GCLowWater|GCHighWater`),
			panicWith(`device over-committed`)))},
		bad: []map[string]string{
			src("internal/kamlssd/fixture.go", "package kamlssd\n\nfunc f(lg *logState) { panic(fmt.Sprintf(\"log %d: device over-committed\", lg.id)) }\n"),
			src("internal/kamlssd/fixture.go", "package kamlssd\n\nfunc (c Config) f() int { return c.GCLowWater }\n"),
		},
	},
	{
		name:   "firmware-never-sleeps",
		why:    "no Sleep in the firmware: wait on the event that ends the wait (a sim.Cond, sim.Latch or event)",
		sc:     firmwareRun,
		checks: []check{forbid(call(`Sleep$`))},
		bad: []map[string]string{
			src("internal/kamlssd/gc.go", "package kamlssd\n\nfunc (c *collector) loop() { c.d.eng.Sleep(time.Millisecond) }\n"),
			src("internal/kamlssd/mvcc.go", "package kamlssd\n\nfunc (d *Device) nvFetch() { d.eng.Sleep(retryBackoff) }\n"),
		},
	},
	{
		name: "recovery-scans-per-chip",
		why:  "the recovery scan is one scanner per chip (scanLogs), not one actor",
		sc:   files("internal/kamlssd/recover.go"),
		checks: []check{require("reader actor started per chip in scanLogs",
			in(loopCalling(`\.Go$`), "Device.scanLogs"))},
		bad: []map[string]string{src("internal/kamlssd/recover.go",
			"package kamlssd\n\nfunc (d *Device) scanLogs() {\n\tfor _, lg := range d.logs {\n\t\td.readPages(lg)\n\t}\n}\n")},
	},
	{
		// A plain goroutine, sync.WaitGroup or channel would leave the
		// engine's runnable count wrong and hang a serialized run.
		name:   "firmware-sim-primitives",
		why:    "internal/kamlssd blocks on sim primitives only: eng.Go, eng.NewWaitGroup, sim.Cond",
		sc:     firmwareRun,
		checks: []check{forbid(anyOf(isGo, isChan, selector(`sync\.WaitGroup`)))},
		bad: []map[string]string{
			src("internal/kamlssd/device.go", "package kamlssd\n\nfunc (d *Device) startActors() { go d.pipe.Join() }\n"),
			src("internal/kamlssd/fixture.go", "package kamlssd\n\nvar done = make(chan struct{})\n"),
			src("internal/kamlssd/fixture.go", "package kamlssd\n\nvar wg sync.WaitGroup\n"),
		},
	},
	{
		// A partial block is resumed from its first unprogrammed page
		// (logState.resume), not padded, and the join sorts the scan
		// (sortScan) instead of keeping a candidate map.
		name:   "recovery-reads-only",
		why:    "recovery programs nothing and keeps no candidate map: resume partial blocks, sort the scan",
		sc:     whole,
		checks: []check{forbid(ident(`padBlock|padPage|paddedPages|RecoveryPaddedPages|chainRebuild|verCand`))},
		bad:    []map[string]string{src("internal/kamlssd/recover.go", "package kamlssd\n\nfunc (d *Device) padBlock(lg *logState) {}\n")},
	},
	{
		name:   "page-handed-over",
		why:    "a page goes to flash as Packer.Finish built it, and a Future parks on its sim.Latch",
		sc:     whole,
		checks: []check{forbid(ident(`FinishReuse|futurePark`))},
		bad:    []map[string]string{src("internal/record/fixture.go", "package record\n\nfunc (p *Packer) FinishReuse(buf []byte) []byte { return buf }\n")},
	},
	{
		name:   "timer-heap-by-value",
		why:    "the engine's timer heap holds timers by value (timerHeap.push/pop)",
		sc:     files("internal/sim"),
		checks: []check{forbid(imports("container/heap"))},
		bad:    []map[string]string{src("internal/sim/fixture.go", "package sim\n\nimport \"container/heap\"\n\nvar _ = heap.Init\n")},
	},
	{
		name:   "nvram-free-list",
		why:    "NVRAM staging buffers come from the NVRAM's free list (NVRAM.copyIn/release)",
		sc:     firmware,
		checks: []check{forbid(anyOf(ident(`stagingPool`), selector(`sync\.Pool`)))},
		bad:    []map[string]string{src("internal/kamlssd/nvram.go", "package kamlssd\n\nvar bufs sync.Pool\n")},
	},
	{
		name:   "batch-seq-range",
		why:    "a batch's seqs are the range beginBatch reserved (nvBatch.first, n)",
		sc:     files("internal/kamlssd/nvram.go"),
		checks: []check{forbid(ident(`^seqs$`))},
		bad:    []map[string]string{src("internal/kamlssd/nvram.go", "package kamlssd\n\ntype nvBatch struct {\n\tseqs []uint64\n}\n")},
	},
	{
		name: "one-allocation-table",
		why:  "every append stream allocates through active[stream]",
		sc:   firmware,
		checks: []check{forbid(anyOf(ident(`activeHost|activeGC`),
			callWith(`nextPPN$`, `^(true|false)$`)))},
		bad: []map[string]string{
			src("internal/kamlssd/fixture.go", "package kamlssd\n\nfunc f(lg *logState) { lg.nextPPN(true) }\n"),
			src("internal/kamlssd/fixture.go", "package kamlssd\n\nfunc f(lg *logState) { _ = lg.activeGC }\n"),
		},
	},
	{
		name:   "coalescer-reuses-results",
		why:    "the coalescer reuses its cut's results slice",
		sc:     cmdqPkg,
		checks: []check{forbid(makeSlice(`^Result`))},
		bad:    []map[string]string{src("internal/cmdq/fixture.go", "package cmdq\n\nfunc f(n int) []Result { return make([]Result, n) }\n")},
	},
	{
		name: "one-submit-path",
		why:  "one submit path: Pipeline.Submit copies the command into its future",
		sc:   cmdqPkg,
		checks: []check{
			forbid(decl("*", `^(Do|SubmitOwned)$`)),
			count("submit methods of Pipeline", 1, decl("Pipeline", `^Submit`)),
		},
		bad: []map[string]string{
			src("internal/cmdq/fixture.go", "package cmdq\n\nfunc (p *Pipeline) SubmitOwned(cmd *Command) *Future { return nil }\n"),
			src("internal/cmdq/fixture.go", "package cmdq\n\nfunc (p *Pipeline) SubmitBatch(cmds []Command) {}\n"),
			src("internal/cmdq/fixture.go", "package cmdq\n\nfunc (s *shard) Do(cmd *Command) Result { return Result{} }\n"),
		},
	},
	{
		// A direct command (Get, Snapshot) runs on its caller through
		// RunDirect and a write on its coalescer shard. (kvproto's client
		// keeps a GetFuture of its own.)
		name: "no-worker-pool",
		why:  "cmdq has no worker pool: reads and snapshots run on the caller (RunDirect), writes on their coalescer shard",
		sc:   whole,
		checks: []check{forbid(anyOf(ident(`workerLoop|SubmitGet|SubmitSnapshot|AsyncGet|stageQueue`),
			callWith(`\bGo$`, `cmdq-worker`)))},
		bad: []map[string]string{
			src("internal/cmdq/fixture.go", "package cmdq\n\nfunc f(eng *sim.Engine, p *Pipeline) { eng.Go(fmt.Sprintf(\"cmdq-worker%d\", 0), p.run) }\n"),
			src("kaml.go", "package kaml\n\nfunc (d *Device) AsyncGet(ns uint32, key uint64) {}\n"),
		},
	},
	{
		name:   "reads-move-their-sectors",
		why:    "a Get or a sector read moves only its ECC sectors: flash.ReadRange",
		sc:     files("internal/kamlssd/mvcc.go", "internal/ftl/ftl.go"),
		checks: []check{forbid(call(`ReadPage$`))},
		bad: []map[string]string{
			src("internal/ftl/ftl.go", "package ftl\n\nfunc (f *FTL) read(ppn flash.PPN) { f.arr.ReadPage(ppn) }\n"),
		},
	},
	{
		name:   "no-record-At",
		why:    "record.At is gone: ReadRange the record's chunks and decode them with record.Unmarshal",
		sc:     whole,
		checks: []check{forbid(anyOf(selector(`record\.At$`), decl("", `^At$`)))},
		bad: []map[string]string{
			src("internal/record/fixture.go", "package record\n\nfunc At(page []byte, chunk int) (Record, error) { return Record{}, nil }\n"),
			src("internal/kamlssd/fixture.go", "package kamlssd\n\nvar _, _ = record.At(nil, 0)\n"),
		},
	},
	{
		// A page takes its flash address when the flusher dequeues it: a
		// writer that meets a full queue moves on to the next log, so
		// neither the seal nor the append waits for an erased block.
		name:   "flusher-allocates-host-pages",
		why:    "only the flusher allocates a host page (hostPPN at dequeue): a writer never waits for an erased block",
		sc:     firmwareRun,
		checks: []check{forbid(outside(call(`hostPPN$`), "Device.flusherLoop"))},
		bad: []map[string]string{src("internal/kamlssd/fixture.go",
			"package kamlssd\n\nfunc (d *Device) appendRecord(lg *logState) { lg.hostPPN(streamCold) }\n")},
	},
	{
		// (The baseline FTL's buffer keeps a spaceCv of its own.)
		name:   "writers-await-room",
		why:    "a writer waits for any flusher's room event (awaitRoom on d.room), not one log's spaceCv",
		sc:     firmware,
		checks: []check{forbid(ident(`spaceCv`))},
		bad:    []map[string]string{src("internal/kamlssd/fixture.go", "package kamlssd\n\ntype l struct{ spaceCv *sim.Cond }\n")},
	},
	{
		name: "tables-stay-in-dram",
		why:  "a mapping table is never swapped out; family.chains is set once",
		sc:   whole,
		checks: []check{forbid(ident(
			`SwapOutIndex|loadIndex|ErrSwappedOut|pageTypeIndex|swapPages|relocateIndexPages|DeserializeVersionChains|lockMounted`))},
		bad: []map[string]string{src("kaml.go", "package kaml\n\nfunc (d *Device) SwapOutIndex(ns uint32) error { return nil }\n")},
	},
	{
		name:   "readers-per-chip-is-recoverys",
		why:    "readersPerChip is recovery's: a victim scan has one reader (collector.reader)",
		sc:     scope{except: "recover.go"},
		checks: []check{forbid(ident(`readersPerChip`))},
		bad:    []map[string]string{src("internal/kamlssd/gc.go", "package kamlssd\n\nvar n = readersPerChip\n")},
	},
	{
		name:   "one-victim-reader",
		why:    "the collector's two-reader scan is gone: startScan, then awaitPage page by page",
		sc:     firmware,
		checks: []check{forbid(anyOf(ident(`nReaders`), decl("collector", `^scan$`)))},
		bad: []map[string]string{
			src("internal/kamlssd/fixture.go", "package kamlssd\n\nfunc (c *collector) scan(block int) {}\n"),
			src("internal/kamlssd/fixture.go", "package kamlssd\n\nconst nReaders = 2\n"),
		},
	},
	{
		name: "one-program-one-page-read",
		why:  "programPage and readRecords (device.go) are the one program and the one page read",
		sc:   firmwareRun,
		checks: []check{
			once(call(`arr\.ProgramPage$`), "internal/kamlssd/device.go", "Device.programPage"),
			once(call(`arr\.ReadPage$`), "internal/kamlssd/device.go", "Device.readRecords"),
		},
		bad: []map[string]string{
			src("internal/kamlssd/fixture.go", "package kamlssd\n\nfunc (d *Device) gcProgram(ppn flash.PPN) { d.arr.ProgramPage(ppn, nil, nil) }\n"),
			src("internal/kamlssd/fixture.go", "package kamlssd\n\nfunc (d *Device) scanPage(ppn flash.PPN) { d.arr.ReadPage(ppn) }\n"),
		},
	},
	{
		name:   "program-page-marks-failures",
		why:    "programPage alone marks a block that ate a program (progFailed)",
		sc:     firmwareRun,
		checks: []check{once(inc(`progFailed$`), "internal/kamlssd/device.go", "Device.programPage")},
		bad: []map[string]string{src("internal/kamlssd/fixture.go",
			"package kamlssd\n\nfunc (d *Device) retire(lc *logChip, b int) { lc.blocks[b].progFailed++ }\n")},
	},
	{
		name: "callers-only-retry",
		why:  "a failed program is programPage's to handle: its callers only retry",
		sc:   firmwareRun,
		checks: []check{forbid(in(ident(`ErrInjectedFailure|progFailed`),
			"Device.flusherLoop", "Device.gcProgram"))},
		bad: []map[string]string{src("internal/kamlssd/fixture.go",
			"package kamlssd\n\nfunc (d *Device) gcProgram(err error) bool { return errors.Is(err, flash.ErrInjectedFailure) }\n")},
	},
	{
		// A log's space state is its ledger's: the rest of the firmware asks
		// it (wantsGC, take, collectible, cover, gcPagesNeeded) and hands it
		// blocks (popFree, reclaim, creditValid), never writes it.
		name: "one-space-ledger",
		why:  "only the space ledger (space.go) writes the free lists and count, gcCovered, gcStarved, and a block's validBytes, maxChunks and noGain",
		sc:   scope{paths: []string{"internal/kamlssd"}, noTests: true, except: "space.go"},
		checks: []check{forbid(assigns(
			`^(freeList|freeBlocks|gcCovered|gcStarved|validBytes|maxChunks|noGain)$`))},
		bad: []map[string]string{
			src("internal/kamlssd/gc.go", "package kamlssd\n\nfunc f(bm *blockMeta) { bm.validBytes = 0 }\n"),
			src("internal/kamlssd/log.go", "package kamlssd\n\nfunc (lg *logState) f() { lg.freeBlocks-- }\n"),
		},
	},
	{
		// Every engine runs one actor at a time, drawn by its seeded
		// schedule: no flag picks a second mode, and no pool serves
		// actors that park in parallel.
		name:   "one-scheduler-mode",
		why:    "the sim engine has one scheduler: no serial flag, no sync.Pool",
		sc:     scope{paths: []string{"internal/sim"}, noTests: true},
		checks: []check{forbid(anyOf(ident(`^serial$`), selector(`sync\.Pool`)))},
		bad: []map[string]string{
			src("internal/sim/fixture.go", "package sim\n\ntype Engine struct {\n\tserial bool\n}\n"),
			src("internal/sim/fixture.go", "package sim\n\nvar tokens sync.Pool\n"),
		},
	},
	{
		// The engine's owner runs the actor path without a lock; only
		// outside callers, and the owner taking in what they posted, take
		// the engine's mutex (package sim's "The owner").
		name: "engine-lock-at-the-edge",
		why:  "e.mu is taken only by the outside entry points (Go, Latch.OpenAt, Wait, Serialize, the watchdog), the inbox drain and the hub's stop",
		sc:   scope{paths: []string{"internal/sim"}, noTests: true},
		checks: []check{forbid(outside(call(`^e\.mu\.Lock$`),
			"Engine.Go", "Latch.OpenAt", "Engine.Wait", "Engine.Serialize",
			"Engine.checkStall", "Engine.drain", "Engine.runHub"))},
		bad: []map[string]string{src("internal/sim/sync.go",
			"package sim\n\nfunc (s *Semaphore) Acquire() {\n\te := s.e\n\te.mu.Lock()\n\ts.avail--\n\te.mu.Unlock()\n}\n")},
	},
	{
		// The engine runs one actor at a time and the running actor owns
		// every piece of firmware, harness and driver state it touches: a
		// host lock, an atomic or a CAS there guards a race that cannot
		// happen. Host synchronisation stays where a second host thread
		// really exists: the engine's inbox, the telemetry cells that HTTP
		// handlers and bench reporters scrape, the network goroutines, the
		// cluster's topology that the KVP2 handshake reads, and the
		// experiment cells that run on parallel engines.
		name: "host-sync-at-the-edge",
		why:  "one actor runs at a time: non-test Go outside bench/ imports sync or sync/atomic only in internal/sim, internal/telemetry, internal/kvproto, internal/cluster/cluster.go and internal/experiments/common.go; internal/hashindex imports no runtime, internal/kamlssd declares no sync.Mutex or sync.RWMutex, internal/cmdq calls no CompareAndSwap",
		sc:   nonTest,
		checks: []check{
			besides(forbid(anyOf(imports("sync"), imports("sync/atomic"))), "bench", "internal/sim",
				"internal/telemetry", "internal/kvproto", "internal/cluster/cluster.go", "internal/experiments/common.go"),
			only("internal/hashindex", forbid(imports("runtime"))),
			only("internal/kamlssd", forbid(selector(`^sync\.(RW)?Mutex$`))),
			only("internal/cmdq", forbid(call(`CompareAndSwap$`))),
		},
		bad: []map[string]string{
			src("internal/hashindex/concurrent.go", "package hashindex\n\nimport \"sync\"\n\nvar mu sync.Mutex\n"),
			src("internal/hashindex/versions.go", "package hashindex\n\nimport \"sync/atomic\"\n\nvar nodes atomic.Int64\n"),
			src("internal/hashindex/concurrent.go", "package hashindex\n\nimport \"runtime\"\n\nfunc f() { runtime.Gosched() }\n"),
			src("internal/kamlssd/index.go", "package kamlssd\n\ntype treeDir struct {\n\tmu sync.RWMutex\n}\n"),
			src("internal/kamlssd/device.go", "package kamlssd\n\ntype Device struct {\n\tpinMu sync.Mutex\n}\n"),
			src("internal/cmdq/cmdq.go", "package cmdq\n\nfunc (p *Pipeline) reserveFast() bool { return p.occ.CompareAndSwap(0, 1) }\n"),
			src("internal/flash/flash.go", "package flash\n\nimport \"sync/atomic\"\n\ntype Array struct {\n\tpowered atomic.Bool\n}\n"),
			src("internal/traffic/runner.go", "package traffic\n\nimport \"sync\"\n\ntype runner struct {\n\tcmu sync.Mutex\n}\n"),
			src("internal/workload/ycsb.go", "package workload\n\nimport \"sync/atomic\"\n\ntype YCSB struct {\n\tinserted atomic.Uint64\n}\n"),
			src("kaml.go", "package kaml\n\nimport \"sync\"\n\ntype Device struct {\n\tmu sync.Mutex\n}\n"),
		},
	},
	{
		// The suite drives load in one closed loop, measure's warm-up and
		// window; an open loop over a cluster is a traffic scenario, and
		// internal/traffic is the open-loop driver.
		name:   "one-closed-loop",
		why:    "internal/experiments has one load loop: only measure calls Sleep, and nothing builds a cluster (cluster.New)",
		sc:     scope{paths: []string{"internal/experiments"}, noTests: true},
		checks: []check{forbid(anyOf(outside(call(`Sleep$`), "measure"), call(`^cluster\.New$`)))},
		bad: []map[string]string{src("internal/experiments/sisweep.go",
			"package experiments\n\nfunc siBench(rig *oltpRig, warm time.Duration) {\n\trig.eng.Go(\"clock\", func() { rig.eng.Sleep(warm) })\n}\n")},
	},
	{
		// The suite's results are computed on the virtual clock, so only
		// the command-line tools and the benchmark read the host's. The
		// sim watchdog's timer and the wire client's backoff wait on it,
		// at the edge; they read no time.
		name:   "one-clock",
		why:    "non-test Go outside bench/ and cmd/ reads no wall clock: no time.Now, no time.Since",
		sc:     nonTest,
		checks: []check{besides(forbid(selector(`^time\.(Now|Since)$`)), "bench", "cmd")},
		bad: []map[string]string{src("internal/experiments/qdsweep.go",
			"package experiments\n\nfunc cell() time.Duration {\n\tstart := time.Now()\n\treturn time.Since(start)\n}\n")},
	},
	{
		// A page that does not parse keeps its victim, as a failed read does.
		name: "bad-victim-page-stops-the-scan",
		why:  "a victim page that does not parse stops the scan (readRecords), it does not panic",
		sc:   firmware,
		checks: []check{
			forbid(anyOf(panicWith(`GC parse`), in(call(`^panic$`), "collector.readPages"))),
			require("readRecords call in collector.readPages", in(call(`readRecords$`), "collector.readPages")),
		},
		bad: []map[string]string{
			src("internal/kamlssd/gc.go", "package kamlssd\n\nfunc (c *collector) readPages(ppn flash.PPN) {\n\tif _, _, err := c.d.readRecords(ppn, nil); err != nil {\n\t\tpanic(err)\n\t}\n}\n"),
			src("internal/kamlssd/gc.go", "package kamlssd\n\nfunc (c *collector) readPages(ppn flash.PPN) { c.d.arr.ReadPage(ppn) }\n"),
			src("internal/kamlssd/fixture.go", "package kamlssd\n\nfunc f(err error) { panic(fmt.Sprintf(\"kamlssd: GC parse: %v\", err)) }\n"),
		},
	},
}

// parse parses Go source as the file at path.
func parse(p, code string) (srcFile, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, p, code, parser.SkipObjectResolution)
	return srcFile{path: p, fset: fset, file: f}, err
}

var tree struct {
	once  sync.Once
	fset  *token.FileSet
	files []srcFile
	err   error
}

// repoFiles parses every Go file under the repository root once: bench/
// too, but not the benchmark's build directory or hidden ones.
func repoFiles(t *testing.T) []srcFile {
	t.Helper()
	tree.once.Do(func() {
		fset := token.NewFileSet()
		tree.fset = fset
		tree.err = filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.IsDir() {
				if p != "." && strings.HasPrefix(e.Name(), ".") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			tree.files = append(tree.files, srcFile{path: filepath.ToSlash(p), fset: fset, file: f})
			return nil
		})
	})
	if tree.err != nil {
		t.Fatal(tree.err)
	}
	return tree.files
}

func TestStructuralRules(t *testing.T) {
	tree := repoFiles(t)
	if !slices.ContainsFunc(tree, func(f srcFile) bool { return strings.HasPrefix(f.path, "bench/") }) {
		t.Fatalf("parsed %d files, bench/ not among them", len(tree))
	}
	for _, r := range rules {
		if v := r.violations(tree); len(v) > 0 {
			t.Errorf("%s: %s\n\t%s", r.name, r.why, strings.Join(v, "\n\t"))
		}
	}
}

// near returns the files of tree in the directories of the fixture's paths
// — every check that counts or requires something reads one package — and
// the fixture's files: in place of those of the same path with replace,
// beside them without.
func near(t *testing.T, tree []srcFile, fixture map[string]string, replace bool) []srcFile {
	t.Helper()
	var out []srcFile
	for _, f := range tree {
		if _, ok := fixture[f.path]; ok && replace {
			continue
		}
		for p := range fixture {
			if path.Dir(f.path) == path.Dir(p) {
				out = append(out, f)
				break
			}
		}
	}
	for p, code := range fixture {
		f, err := parse(p, code)
		if err != nil {
			t.Fatalf("fixture %s: %v", p, err)
		}
		out = append(out, f)
	}
	return out
}

// Every rule flags each of its fixtures.
func TestStructuralRulesFlagTheirFixtures(t *testing.T) {
	tree := repoFiles(t)
	for _, r := range rules {
		if len(r.bad) == 0 {
			t.Errorf("%s: no fixture breaks it", r.name)
		}
		for i, fix := range r.bad {
			if len(r.violations(near(t, tree, fix, true))) == 0 {
				t.Errorf("%s: fixture %d passes: %v", r.name, i, fix)
			}
		}
	}
}

// What the rules forbid may be named in comments and strings: a file that
// names all of it that way, beside every file a rule reads, breaks none.
func TestStructuralRulesIgnoreCommentsAndStrings(t *testing.T) {
	const named = `TextClient DialText runOnDevice cmdCreate cmdPut cmdGet dialText textConn
validateBatch TestingSplitBatchCommit splitCommit addStat( FlushPoll packerBorn GCPoll
GroupCommit groupCommitWindow ftl.DefaultConfig ftl.Config func New( (t *Table)
gcCapacityPages device over-committed GCLowWater GCHighWater Sleep( single-threaded
sync.WaitGroup go func make(chan padBlock padPage paddedPages RecoveryPaddedPages
chainRebuild verCand FinishReuse futurePark container/heap stagingPool sync.Pool seqs
activeHost activeGC nextPPN(true) nextPPN(false) make([]Result func (p *Pipeline) Do(
SubmitOwned( workerLoop SubmitGet SubmitSnapshot AsyncGet stageQueue cmdq-worker ReadPage(
record.At( func At( hostPPN( spaceCv SwapOutIndex loadIndex ErrSwappedOut pageTypeIndex
swapPages relocateIndexPages DeserializeVersionChains lockMounted readersPerChip nReaders
func (c *collector) scan( arr.ProgramPage( arr.ReadPage( progFailed++ ErrInjectedFailure
GC parse bm.validBytes = 0 lg.freeBlocks-- serial bool e.mu.Lock() sync.Mutex
sync.RWMutex CompareAndSwap( "sync/atomic" runtime.Gosched() cluster.New(
time.Now() time.Since(`
	var code strings.Builder
	code.WriteString("// Package fixture names, in comments and strings only:\n")
	for _, line := range strings.Split(named, "\n") {
		fmt.Fprintf(&code, "//\t%s\n", line)
	}
	code.WriteString("package fixture\n\n/*\n" + named + "\n*/\n\n")
	fmt.Fprintf(&code, "const named = %q\n\nvar raw = `%s`\n", named, named)
	fmt.Fprintf(&code, "\nfunc f() {\n\tprintln(%q) // %s\n}\n", named, strings.ReplaceAll(named, "\n", " "))

	fixture := map[string]string{}
	for _, r := range rules {
		paths := r.sc.paths
		if len(paths) == 0 {
			paths = []string{""}
		}
		for _, p := range paths {
			if !strings.HasSuffix(p, ".go") {
				p = path.Join(p, "fixture.go")
			}
			fixture[p] = code.String()
		}
	}
	// Beside the files a rule reads alone (recover.go, nvram.go), so what
	// they must hold is still there.
	files := near(t, repoFiles(t), fixture, false)
	for _, r := range rules {
		if v := r.violations(files); len(v) > 0 {
			t.Errorf("%s flags names in comments and strings:\n\t%s", r.name, strings.Join(v, "\n\t"))
		}
	}
}
