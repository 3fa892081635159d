package kaml_test

import (
	"errors"
	"fmt"
	"testing"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/kamlssd"
)

// TestSubmitPutBatchContract pins the one batch contract at the one place it
// is checked — the firmware boundary, reached here without the kaml wrapper —
// and that the public sentinel names are the firmware's.
func TestSubmitPutBatchContract(t *testing.T) {
	withDevice(t, func(dev *kaml.Device) {
		ns, _ := dev.CreateNamespace(kaml.NamespaceOptions{})
		rec := func(key uint64, n int) kaml.Record {
			return kaml.Record{Namespace: ns, Key: key, Value: make([]byte, n)}
		}
		for _, tc := range []struct {
			name  string
			batch []kaml.Record
			want  error
		}{
			{"empty", nil, kamlssd.ErrEmptyBatch},
			{"duplicate", []kaml.Record{rec(7, 1), rec(8, 1), rec(7, 1)}, kamlssd.ErrBadBatch},
			{"oversize", []kaml.Record{rec(1, 1), rec(2, kaml.SmallOptions().Flash.PageSize)}, kamlssd.ErrValueTooLarge},
			{"valid", []kaml.Record{rec(1, 1), rec(2, 1)}, nil},
		} {
			err := dev.Raw().SubmitPut(tc.batch).Wait().Err
			if !errors.Is(err, tc.want) || (tc.want == nil && err != nil) {
				t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
			}
			if errors.Is(err, kaml.ErrDuplicateKey) != errors.Is(err, kamlssd.ErrBadBatch) ||
				errors.Is(err, kaml.ErrEmptyBatch) != errors.Is(err, kamlssd.ErrEmptyBatch) {
				t.Errorf("%s: kaml and kamlssd sentinels disagree on %v", tc.name, err)
			}
			// A rejected batch leaves nothing behind.
			if _, gerr := dev.Get(ns, 8); tc.want != nil && !errors.Is(gerr, kaml.ErrKeyNotFound) {
				t.Errorf("%s: rejected batch leaked a record: %v", tc.name, gerr)
			}
		}
	})
}

func TestPutBatchRejectsEmpty(t *testing.T) {
	withDevice(t, func(dev *kaml.Device) {
		if err := dev.PutBatch(nil); !errors.Is(err, kaml.ErrEmptyBatch) {
			t.Fatalf("nil batch: %v", err)
		}
		if err := dev.PutBatch([]kaml.Record{}); !errors.Is(err, kaml.ErrEmptyBatch) {
			t.Fatalf("empty batch: %v", err)
		}
		if err := dev.AsyncPutBatch(nil).Wait(); !errors.Is(err, kaml.ErrEmptyBatch) {
			t.Fatalf("async empty batch: %v", err)
		}
	})
}

func TestPutBatchRejectsDuplicateKeys(t *testing.T) {
	withDevice(t, func(dev *kaml.Device) {
		ns, _ := dev.CreateNamespace(kaml.NamespaceOptions{})
		other, _ := dev.CreateNamespace(kaml.NamespaceOptions{})
		dup := []kaml.Record{
			{Namespace: ns, Key: 7, Value: []byte("a")},
			{Namespace: ns, Key: 8, Value: []byte("b")},
			{Namespace: ns, Key: 7, Value: []byte("c")},
		}
		if err := dev.PutBatch(dup); !errors.Is(err, kaml.ErrDuplicateKey) {
			t.Fatalf("duplicate batch: %v", err)
		}
		// Nothing from the rejected batch may have landed.
		if _, err := dev.Get(ns, 8); !errors.Is(err, kaml.ErrKeyNotFound) {
			t.Fatalf("rejected batch leaked a record: %v", err)
		}
		// The same key in DIFFERENT namespaces is legal.
		ok := []kaml.Record{
			{Namespace: ns, Key: 7, Value: []byte("a")},
			{Namespace: other, Key: 7, Value: []byte("b")},
		}
		if err := dev.PutBatch(ok); err != nil {
			t.Fatalf("cross-namespace same key: %v", err)
		}
		if err := dev.AsyncPutBatch(dup).Wait(); !errors.Is(err, kaml.ErrDuplicateKey) {
			t.Fatalf("async duplicate batch: %v", err)
		}
	})
}

func TestAsyncPutGetFutures(t *testing.T) {
	withDevice(t, func(dev *kaml.Device) {
		ns, _ := dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: 256})
		// Issue a window of writes before awaiting any of them.
		puts := make([]*kaml.PutFuture, 16)
		for i := range puts {
			puts[i] = dev.AsyncPut(ns, uint64(i), []byte(fmt.Sprintf("v%d", i)))
		}
		for i, f := range puts {
			if err := f.Wait(); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
			if !f.Ready() {
				t.Fatalf("put %d not ready after Wait", i)
			}
		}
		// A read runs on its caller; every acknowledged write is visible.
		for i := range puts {
			v, err := dev.Get(ns, uint64(i))
			if err != nil || string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("get %d: %q %v", i, v, err)
			}
		}
		if _, err := dev.Get(ns, 9999); !errors.Is(err, kaml.ErrKeyNotFound) {
			t.Fatalf("missing key: %v", err)
		}
	})
}

func TestAsyncConcurrentStress(t *testing.T) {
	// Many actors each keep several writes in flight against overlapping
	// keys and read them back; run under -race this exercises the pipeline's
	// cross-actor future hand-off, the coalescer's merge path and reads
	// running on their callers beside them.
	withDevice(t, func(dev *kaml.Device) {
		ns, _ := dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: 2048})
		wg := dev.NewWaitGroup()
		const actors, rounds, window = 8, 12, 4
		for a := 0; a < actors; a++ {
			a := a
			wg.Add(1)
			dev.Go(func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					var puts [window]*kaml.PutFuture
					for i := 0; i < window; i++ {
						k := uint64(a*window + i) // overlaps across rounds
						puts[i] = dev.AsyncPut(ns, k, []byte(fmt.Sprintf("a%dr%di%d", a, r, i)))
					}
					for i, f := range puts {
						if err := f.Wait(); err != nil {
							t.Errorf("actor %d round %d put %d: %v", a, r, i, err)
							return
						}
					}
					for i := 0; i < window; i++ {
						if _, err := dev.Get(ns, uint64(a*window+i)); err != nil {
							t.Errorf("actor %d round %d get %d: %v", a, r, i, err)
							return
						}
					}
				}
			})
		}
		wg.Wait()
		st := dev.Stats()
		if st.PipelineSubmitted == 0 || st.PipelineCompleted != st.PipelineSubmitted {
			t.Fatalf("pipeline counters: submitted=%d completed=%d",
				st.PipelineSubmitted, st.PipelineCompleted)
		}
	})
}

func TestAsyncAfterCloseFails(t *testing.T) {
	dev, err := kaml.Open(kaml.SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	dev.Go(func() {
		ns, _ := dev.CreateNamespace(kaml.NamespaceOptions{})
		dev.Close()
		if err := dev.AsyncPut(ns, 1, []byte("x")).Wait(); !errors.Is(err, kaml.ErrClosed) {
			t.Errorf("put after close: %v", err)
		}
		if _, err := dev.Get(ns, 1); !errors.Is(err, kaml.ErrClosed) {
			t.Errorf("get after close: %v", err)
		}
	})
	dev.Wait()
}
