package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"kpj"
	"kpj/internal/fault"
	"kpj/internal/server"
)

// testApp builds a small grid server plus its flat file on disk, the
// fixture watchReload needs.
func testApp(t *testing.T) (*server.Server, string) {
	t.Helper()
	const w, h = 5, 5
	b := kpj.NewBuilder(w * h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			id := kpj.NodeID(y*w + x)
			if x+1 < w {
				b.AddBiEdge(id, id+1, kpj.Weight(1+(x+y)%3))
			}
			if y+1 < h {
				b.AddBiEdge(id, id+kpj.NodeID(w), kpj.Weight(1+(x*y)%3))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := kpj.BuildIndex(g, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grid.kpjflat")
	if err := kpj.WriteFlatFile(path, g, ix); err != nil {
		t.Fatal(err)
	}
	return server.New(g, ix), path
}

// TestWatchReloadSurvivesInjectedFault drives the SIGHUP reload loop with
// a manual signal channel: the first reload hits an injected index.load
// fault and must keep the old index; the second, clean reload swaps it.
func TestWatchReloadSurvivesInjectedFault(t *testing.T) {
	app, path := testApp(t)

	var mu sync.Mutex
	var logged []string
	logf := func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	fault.Install(fault.New().Add(
		fault.Rule{Point: fault.IndexLoad, Nth: 1, Count: 1}))
	defer fault.Install(nil)

	// Each logged line corresponds to one drained signal, so waiting for
	// the log to grow synchronizes with the loop without sleeps.
	waitLog := func(n int) string {
		for {
			mu.Lock()
			if len(logged) >= n {
				line := logged[n-1]
				mu.Unlock()
				return line
			}
			mu.Unlock()
		}
	}

	ch := make(chan os.Signal)
	done := make(chan struct{})
	go func() {
		watchReload(app, path, ch, logf)
		close(done)
	}()

	ch <- os.Interrupt // stand-in for SIGHUP; watchReload only ranges the channel
	if line := waitLog(1); !strings.Contains(line, "reload failed") || !strings.Contains(line, "keeping current index") {
		t.Fatalf("faulted reload logged %q, want a keeping-current-index failure", line)
	}

	ch <- os.Interrupt
	if line := waitLog(2); !strings.Contains(line, "index reloaded from "+path) {
		t.Fatalf("clean reload logged %q", line)
	}

	close(ch) // loop exits when the signal channel closes
	<-done
}
