package kaml

import (
	"fmt"
	"go/ast"
	"os"
	"path"
	"regexp"
	"slices"
	"strings"
	"testing"
)

const workflowFile = ".github/workflows/ci.yml"

var testFunc = regexp.MustCompile(`^(Test|Fuzz|Benchmark|Example)`)

// staleRunPatterns returns the alternatives of every -run or -fuzz pattern
// of a go test command in workflow that match no Test, Fuzz, Benchmark or
// Example function of the packages the command names, as
// "line N: pattern alt in pkgs". A pattern that matches nothing makes its
// step pass having run nothing; "^$", which selects no test on purpose, is
// exempt.
func staleRunPatterns(workflow string, files []srcFile) []string {
	funcs := map[string][]string{} // directory -> test function names
	for _, f := range files {
		if !strings.HasSuffix(f.path, "_test.go") {
			continue
		}
		dir := path.Dir(f.path)
		for _, d := range f.file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && testFunc.MatchString(fd.Name.Name) {
				funcs[dir] = append(funcs[dir], fd.Name.Name)
			}
		}
	}
	var out []string
	for n, line := range strings.Split(workflow, "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		var patterns, pkgs []string
		args := strings.Fields(strings.ReplaceAll(cmd, "'", ""))
		for i := 0; i < len(args); i++ {
			a := args[i]
			switch {
			case a == "-run" || a == "-fuzz":
				if i+1 < len(args) {
					i++
					patterns = append(patterns, args[i])
				}
			case strings.HasPrefix(a, "-run=") || strings.HasPrefix(a, "-fuzz="):
				_, p, _ := strings.Cut(a, "=")
				patterns = append(patterns, p)
			case !strings.HasPrefix(a, "-"):
				pkgs = append(pkgs, a)
			}
		}
		var names []string
		for _, p := range pkgs {
			for dir, fs := range funcs {
				if dir == path.Clean(p) || p == "./..." && !under(dir, []string{"bench"}) {
					names = append(names, fs...)
				}
			}
		}
		for _, p := range patterns {
			if p == "^$" {
				continue
			}
			for _, alt := range strings.Split(p, "|") {
				re, err := regexp.Compile(alt)
				if err != nil || !slices.ContainsFunc(names, re.MatchString) {
					out = append(out, fmt.Sprintf("line %d: pattern %s in %s", n+1, alt, strings.Join(pkgs, " ")))
				}
			}
		}
	}
	return out
}

func TestCIRunPatternsMatchTests(t *testing.T) {
	workflow, err := os.ReadFile(workflowFile)
	if err != nil {
		t.Fatal(err)
	}
	if v := staleRunPatterns(string(workflow), repoFiles(t)); len(v) > 0 {
		t.Errorf("%s names tests that do not exist, so its steps run nothing:\n\t%s", workflowFile, strings.Join(v, "\n\t"))
	}
}

// The check names a -run alternative that matches no test of its package,
// and one that matches only another package's tests.
func TestStaleRunPatternsFlagTheirFixture(t *testing.T) {
	const workflow = `      - name: fixture
        run: |
          go test -race -count=3 -run 'TestStructuralRules|TestNoSuchTest' .
          go test -run='^$' -bench=. ./...
          go test -run TestLatch ./internal/kamlssd
`
	got := staleRunPatterns(workflow, repoFiles(t))
	want := []string{"line 3: pattern TestNoSuchTest in .", "line 5: pattern TestLatch in ./internal/kamlssd"}
	if !slices.Equal(got, want) {
		t.Errorf("flagged %q, want %q", got, want)
	}
}
