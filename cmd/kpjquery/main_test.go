package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"kpj"
)

// TestMain lets the test binary stand in for the command, so a test can
// read main's exit status and message.
func TestMain(m *testing.M) {
	if os.Getenv("KPJQUERY_MAIN") == "1" {
		os.Args = append([]string{"kpjquery"}, strings.Fields(os.Getenv("KPJQUERY_ARGS"))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// contractRow is a row of the door contract table (see
// internal/router/door_test.go), with the fields kpjquery can express
// and those that say it cannot.
type contractRow struct {
	Name           string
	Source         *kpj.NodeID
	Sources        []kpj.NodeID
	SourceCategory string
	Target         *kpj.NodeID
	Targets        []kpj.NodeID
	Category       string
	K              *int
	Alg            *string
	Alpha          float64
	Budget         *int64
	Canceled       bool
	Server         bool
	Item           json.RawMessage
	Want           string
	WantByAlg      map[string]string
	Message        string
	Count          *int
}

// expressible reports whether kpjquery's flags can state the row: it has
// no target, list, budget or context flag, and no server limits.
func (r *contractRow) expressible() bool {
	return r.Category != "" && r.Sources == nil && r.Target == nil && r.Targets == nil &&
		r.Budget == nil && !r.Canceled && !r.Server && r.Item == nil
}

// contractFlat writes the contract's fixture graph and index to a flat
// file and returns its path, the graph, the index and the rows.
func contractFlat(t *testing.T) (string, *kpj.Graph, *kpj.Index, []contractRow) {
	t.Helper()
	raw, err := os.ReadFile("../../internal/router/testdata/contract.json")
	if err != nil {
		t.Fatal(err)
	}
	var tab struct {
		Graph struct {
			Nodes      int
			BiEdges    [][3]int64
			Edges      [][3]int64
			Categories map[string][]kpj.NodeID
			Landmarks  int
			Seed       int64
		}
		Rows []contractRow
	}
	if err := json.Unmarshal(raw, &tab); err != nil {
		t.Fatal(err)
	}
	b := kpj.NewBuilder(tab.Graph.Nodes)
	for _, e := range tab.Graph.BiEdges {
		b.AddBiEdge(kpj.NodeID(e[0]), kpj.NodeID(e[1]), kpj.Weight(e[2]))
	}
	for _, e := range tab.Graph.Edges {
		b.AddEdge(kpj.NodeID(e[0]), kpj.NodeID(e[1]), kpj.Weight(e[2]))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for name, nodes := range tab.Graph.Categories {
		if err := g.AddCategory(name, nodes); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := kpj.BuildIndex(g, tab.Graph.Landmarks, tab.Graph.Seed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "contract.kpjflat")
	if err := kpj.WriteFlatFile(path, g, ix); err != nil {
		t.Fatal(err)
	}
	return path, g, ix, tab.Rows
}

var pathLine = regexp.MustCompile(`(?m)^P\d+ +length=(\d+) `)

// TestQueryContract runs every row of the door contract that kpjquery can
// express, with every algorithm, and holds it to the library's answer:
// the identical length sequence, or an error of the row's class.
func TestQueryContract(t *testing.T) {
	flat, g, ix, rows := contractFlat(t)
	sentinels := map[string]error{
		"ErrNodeRange": kpj.ErrNodeRange, "ErrNoCategory": kpj.ErrNoCategory, "ErrBadK": kpj.ErrBadK,
		"ErrNoSources": kpj.ErrNoSources, "ErrNoTargets": kpj.ErrNoTargets, "ErrBadAlpha": kpj.ErrBadAlpha,
		"ErrUnknownAlgorithm": kpj.ErrUnknownAlgorithm,
	}
	ran := 0
	for _, r := range rows {
		if !r.expressible() {
			continue
		}
		algs := []string{}
		if r.Alg != nil {
			algs = append(algs, *r.Alg)
		} else {
			for _, a := range kpj.Algorithms() {
				algs = append(algs, a.String())
			}
		}
		for _, alg := range algs {
			want := r.Want
			if w, ok := r.WantByAlg[alg]; ok {
				want = w
			}
			args := []string{"-flat", flat, "-category", r.Category, "-alg", alg}
			if r.Source != nil {
				args = append(args, "-source", strconv.Itoa(int(*r.Source)))
			}
			if r.SourceCategory != "" {
				args = append(args, "-source-category", r.SourceCategory)
			}
			if r.K != nil {
				args = append(args, "-k", strconv.Itoa(*r.K))
			}
			if r.Alpha != 0 {
				args = append(args, "-alpha", fmt.Sprint(r.Alpha))
			}
			var stdout, stderr bytes.Buffer
			err := run(args, &stdout, &stderr)
			ran++
			ctx := fmt.Sprintf("%s / %s: kpjquery %v", r.Name, alg, args[2:])
			switch want {
			case "paths":
				var ref []kpj.Weight
				algo, _ := kpj.ParseAlgorithm(alg)
				opt := &kpj.Options{Algorithm: algo, Alpha: r.Alpha, Index: ix}
				k := 10
				if r.K != nil {
					k = *r.K
				}
				var paths []kpj.Path
				var lerr error
				if r.Source != nil {
					paths, lerr = g.TopKJoin(*r.Source, r.Category, k, opt)
				} else {
					paths, lerr = g.TopKCategoryJoin(r.SourceCategory, r.Category, k, opt)
				}
				if lerr != nil {
					t.Fatalf("%s: library: %v", ctx, lerr)
				}
				for _, p := range paths {
					ref = append(ref, p.Length)
				}
				var got []kpj.Weight
				for _, m := range pathLine.FindAllStringSubmatch(stdout.String(), -1) {
					l, _ := strconv.ParseInt(m[1], 10, 64)
					got = append(got, kpj.Weight(l))
				}
				if err != nil || !slices.Equal(got, ref) || (r.Count != nil && len(got) != *r.Count) {
					t.Errorf("%s: %v %v, want paths %v", ctx, err, got, ref)
				}
			case "request":
				if err == nil || !strings.Contains(err.Error(), r.Message) {
					t.Errorf("%s: %v, want an error with %q", ctx, err, r.Message)
				}
			default:
				if !errors.Is(err, sentinels[want]) {
					t.Errorf("%s: %v, want %s", ctx, err, want)
				}
			}
		}
	}
	if ran == 0 {
		t.Fatal("no contract row is expressible at kpjquery")
	}
}

// TestExitStatus: main turns run's answer into the exit status and a
// "kpjquery: " message on stderr — 0 with the paths on stdout, 1 for a
// refused query, 2 for flags the flag set refused (its own message).
func TestExitStatus(t *testing.T) {
	flat, _, _, _ := contractFlat(t)
	for _, tc := range []struct {
		args   string
		status int
		stdout string
		stderr string
	}{
		{"-flat " + flat + " -source 0 -category hotel -k 2", 0, "P2 ", ""},
		{"-flat " + flat + " -source -1 -category hotel", 1, "", "kpjquery: " + kpj.ErrNodeRange.Error()},
		{"-flat " + flat + " -source 0 -category hotel -alg nope", 1, "", "kpjquery: " + kpj.ErrUnknownAlgorithm.Error()},
		{"-flat " + flat + " -category hotel", 1, "", "kpjquery: give exactly one of -source or -source-category"},
		{"-flat " + flat + " -source 4294967296 -category hotel", 1, "", "kpjquery: bad -source 4294967296"},
		{"-nope", 2, "", "flag provided but not defined: -nope"},
		{"-h", 0, "", "Usage of kpjquery"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "KPJQUERY_MAIN=1", "KPJQUERY_ARGS="+tc.args)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		status := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			status = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if status != tc.status || !strings.Contains(stdout.String(), tc.stdout) || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("kpjquery %s: status %d, stdout %q, stderr %q; want %d, %q, %q",
				tc.args, status, stdout.String(), stderr.String(), tc.status, tc.stdout, tc.stderr)
		}
	}
}
