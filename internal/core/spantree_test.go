package core

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"rulefit/internal/obs"
	"rulefit/internal/policy"
	"rulefit/internal/routing"
	"rulefit/internal/topology"
)

var updateSpanGolden = flag.Bool("update", false, "rewrite testdata/spantree/*.golden")

// subEncodeCounters matches a sub-solve's encode line (indented under
// decompose/sub_solve) with the counters the goldens predate.
var subEncodeCounters = regexp.MustCompile(`(?m)^(      encode) vars=\d+ constraints=\d+$`)

// spanTree renders a trace's span forest as one line per span: the
// indented name followed by its counters in insertion order. Wall and
// alloc columns are dropped, so the rendering is deterministic.
func spanTree(tr *obs.Trace) string {
	var sb strings.Builder
	for _, line := range strings.Split(tr.Render(), "\n") {
		if line == "" || strings.HasPrefix(line, "trace ") {
			continue
		}
		indent := len(line) - len(strings.TrimLeft(line, " "))
		f := strings.Fields(line)
		sb.WriteString(strings.Repeat(" ", indent) + f[0])
		for _, c := range f[3:] {
			sb.WriteString(" " + c)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// assertSpansEnded fails the test for every span of tr left open.
func assertSpansEnded(t *testing.T, tr *obs.Trace) {
	t.Helper()
	var walk func(sp *obs.Span, path string)
	walk = func(sp *obs.Span, path string) {
		path += "/" + sp.Name()
		if !sp.Ended() {
			t.Errorf("span %s never ended", path)
		}
		for _, ch := range sp.Children() {
			walk(ch, path)
		}
	}
	for _, root := range tr.Roots() {
		walk(root, "")
	}
}

// fatTreeProblem builds a k=4 fat-tree instance with four ingress
// policies of the given size and a uniform switch capacity.
func fatTreeProblem(t *testing.T, rules, capacity int) *Problem {
	t.Helper()
	topo, err := topology.FatTree(4, capacity, 2)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := routing.SpreadPairs(topo, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := routing.BuildRouting(topo, pairs, 2)
	if err != nil {
		t.Fatal(err)
	}
	blacklist := policy.GenerateBlacklist(4, 7)
	var pols []*policy.Policy
	for _, in := range rt.Ingresses() {
		p := policy.Generate(int(in), policy.GenConfig{NumRules: rules, Seed: 11})
		pols = append(pols, policy.WithBlacklist(p, blacklist))
	}
	return &Problem{Network: topo, Routing: rt, Policies: pols}
}

// spanTreeFixtures are the places whose span trees are pinned: a joint
// merged solve that branches, a decomposed solve whose sub-solves
// branch, and a decomposed solve whose stitch is rejected.
func spanTreeFixtures() []struct {
	name  string
	build func(*testing.T) *Problem
	opts  Options
} {
	return []struct {
		name  string
		build func(*testing.T) *Problem
		opts  Options
	}{
		{"joint", func(t *testing.T) *Problem { return fatTreeProblem(t, 12, 12) }, Options{Merging: true}},
		{"decomposed", determinismProblem, Options{}},
		{"fallback", func(t *testing.T) *Problem { return fatTreeProblem(t, 8, 20) }, Options{}},
	}
}

// TestPlaceSpanTreeGolden pins the span tree of a traced place: name
// paths and counters, walls excluded. The goldens were recorded when
// the solver still opened its phase spans itself; the phase spans are
// now derived from the event stream and must reproduce them. The one
// intended difference: a sub-solve's encode span now ends and carries
// the vars/constraints counters of the joint encode span, which the
// comparison drops from the sub-solve lines.
func TestPlaceSpanTreeGolden(t *testing.T) {
	for _, fx := range spanTreeFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			tr := obs.NewTrace()
			opts := fx.opts
			opts.TimeLimit, opts.Workers, opts.Trace = 60*time.Second, 1, tr
			if _, err := Place(fx.build(t), opts); err != nil {
				t.Fatal(err)
			}
			assertSpansEnded(t, tr)
			tree := spanTree(tr)
			if strings.Contains(tree, "sub_solve") && !subEncodeCounters.MatchString(tree) {
				t.Errorf("sub-solve encode spans carry no vars/constraints counters:\n%s", tree)
			}
			got := subEncodeCounters.ReplaceAllString(tree, "$1")
			path := filepath.Join("testdata", "spantree", fx.name+".golden")
			if *updateSpanGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("span tree differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}
