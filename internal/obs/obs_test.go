package obs

import (
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Idempotent registration returns the same instrument.
	if r.Counter("c_total") != c {
		t.Fatal("re-registration returned a different counter")
	}
	if r.Counter("other_total") == c {
		t.Fatal("distinct names share a counter")
	}
}

// TestRegistryConcurrency hammers one counter from many goroutines, each
// registering it by name, while a reader polls it — the -race gate for the
// whole package. The total must be exact, and the concurrently observed
// values must be monotone.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readDone := make(chan []uint64, 1)
	go func() {
		var reads []uint64
		for {
			select {
			case <-stop:
				readDone <- reads
				return
			default:
				reads = append(reads, r.Counter("c_total").Value())
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Registration races with registration and with use: every worker
			// asks for the same name.
			c := r.Counter("c_total")
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	close(stop)
	reads := <-readDone

	if got, want := r.Counter("c_total").Value(), uint64(workers*perWorker); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	var last uint64
	for _, v := range reads {
		if v < last {
			t.Fatalf("counter went backwards across reads: %d after %d", v, last)
		}
		last = v
	}
}
