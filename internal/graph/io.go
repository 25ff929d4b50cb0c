package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements the on-disk formats used by the command-line tools:
//
//   - DIMACS shortest-path graph format (".gr"): the format of the 9th
//     DIMACS Implementation Challenge road networks the paper evaluates on.
//     Lines: "c <comment>", "p sp <n> <m>", "a <u> <v> <w>" with 1-based
//     node ids.
//   - A category ("POI") file: one "<category> <node>" pair per line with
//     0-based node ids; '#' starts a comment.

// errFormat reports a malformed input file.
var errFormat = errors.New("graph: malformed input")

// ReadGr parses a DIMACS ".gr" file into a Graph.
func ReadGr(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var b *Builder
	declared := 0
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "c":
			// comment
		case "p":
			if b != nil {
				return nil, fmt.Errorf("%w: line %d: duplicate problem line", errFormat, line)
			}
			if len(fields) != 4 || fields[1] != "sp" {
				return nil, fmt.Errorf("%w: line %d: want \"p sp <n> <m>\"", errFormat, line)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("%w: line %d: bad node count %q", errFormat, line, fields[2])
			}
			m, err := strconv.Atoi(fields[3])
			if err != nil || m < 0 {
				return nil, fmt.Errorf("%w: line %d: bad edge count %q", errFormat, line, fields[3])
			}
			declared = m
			b = NewBuilder(n)
		case "a":
			if b == nil {
				return nil, fmt.Errorf("%w: line %d: arc before problem line", errFormat, line)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("%w: line %d: want \"a <u> <v> <w>\"", errFormat, line)
			}
			u, err1 := strconv.ParseInt(fields[1], 10, 32)
			v, err2 := strconv.ParseInt(fields[2], 10, 32)
			w, err3 := strconv.ParseInt(fields[3], 10, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("%w: line %d: bad arc %q", errFormat, line, sc.Text())
			}
			b.AddEdge(NodeID(u-1), NodeID(v-1), w) // DIMACS ids are 1-based
		default:
			return nil, fmt.Errorf("%w: line %d: unknown record %q", errFormat, line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading .gr: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("%w: missing problem line", errFormat)
	}
	if b.NumEdges() != declared {
		return nil, fmt.Errorf("%w: declared %d arcs, found %d", errFormat, declared, b.NumEdges())
	}
	return b.Build()
}

// WriteGr writes g in DIMACS ".gr" format.
func WriteGr(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "c generated by kpj\np sp %d %d\n", g.NumNodes(), g.NumEdges())
	for u := 0; u < g.NumNodes(); u++ {
		for _, e := range g.Out(NodeID(u)) {
			fmt.Fprintf(bw, "a %d %d %d\n", u+1, e.To+1, e.W)
		}
	}
	return bw.Flush()
}

// ReadCategories parses a category file and registers every category on g.
func ReadCategories(r io.Reader, g *Graph) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	byName := make(map[string][]NodeID)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			return fmt.Errorf("%w: line %d: want \"<category> <node>\"", errFormat, line)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return fmt.Errorf("%w: line %d: bad node id %q", errFormat, line, fields[1])
		}
		byName[fields[0]] = append(byName[fields[0]], NodeID(v))
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("graph: reading categories: %w", err)
	}
	for name, nodes := range byName {
		if err := g.AddCategory(name, nodes); err != nil {
			return err
		}
	}
	return nil
}

// WriteCategories writes all categories of g in the category file format.
func WriteCategories(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for _, name := range g.Categories() {
		nodes, err := g.Category(name)
		if err != nil {
			return err
		}
		for _, v := range nodes {
			fmt.Fprintf(bw, "%s %d\n", name, v)
		}
	}
	return bw.Flush()
}
