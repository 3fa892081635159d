package admin_test

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/admin"
)

// runWorkload opens a small device, pushes a little traffic through it so
// the hot-path instruments have counts, and leaves it running (scrapes
// happen while actors may still be live — the endpoint reads atomics
// only).
func runWorkload(t *testing.T) *kaml.Device {
	t.Helper()
	dev, err := kaml.Open(kaml.SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	dev.Go(func() {
		defer close(done)
		ns, err := dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: 256})
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		for k := uint64(0); k < 64; k++ {
			if err := dev.Put(ns, k, []byte("telemetry-test-value")); err != nil {
				t.Errorf("put %d: %v", k, err)
				return
			}
		}
		dev.Flush()
		for k := uint64(0); k < 64; k++ {
			if _, err := dev.Get(ns, k); err != nil {
				t.Errorf("get %d: %v", k, err)
				return
			}
		}
	})
	<-done
	t.Cleanup(func() {
		dev.Go(dev.Close)
		dev.Wait()
	})
	return dev
}

// The admin endpoints, Stats and the registry are scraped from plain
// goroutines while the device's actors run Puts, Gets, a Flush and enough
// overwrites for the collectors to erase victims: under -race this fails on
// any state those paths read that is not an atomic telemetry cell.
func TestScrapeWhileTheDeviceRuns(t *testing.T) {
	dev, err := kaml.Open(kaml.SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(admin.Handler(dev))
	defer srv.Close()
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/metrics", "/statusz"} {
					res, err := srv.Client().Get(srv.URL + path)
					if err != nil {
						t.Errorf("GET %s: %v", path, err)
						return
					}
					_, _ = io.Copy(io.Discard, res.Body)
					res.Body.Close()
				}
				_ = dev.Stats()
				_ = dev.Telemetry().Snapshot()
			}
		}()
	}
	var erases int64
	dev.Go(func() {
		defer close(stop)
		ns, err := dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: 256})
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		val := make([]byte, 4000)
		for i := uint64(0); i < 20000 && erases == 0; i++ {
			val[0] = byte(i)
			if err := dev.Put(ns, i%256, val); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
			if i%64 == 63 {
				if _, err := dev.Get(ns, i%256); err != nil {
					t.Errorf("get %d: %v", i%256, err)
					return
				}
				erases = dev.Stats().GCErases
			}
		}
		dev.Flush()
		dev.Close()
	})
	dev.Wait()
	scrapers.Wait()
	if erases == 0 {
		t.Error("the collectors erased no victim")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	dev := runWorkload(t)
	srv := httptest.NewServer(admin.Handler(dev))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type %q", ct)
	}
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	// The key series the CI smoke test also greps for: per-stage pipeline
	// latency, coalescer commits, GC/wear per log, NVRAM occupancy.
	for _, series := range []string{
		`kaml_cmdq_stage_seconds_bucket{op="Get",stage="total",le=`,
		`kaml_cmdq_stage_seconds_count{op="Put",stage="coalesce"}`,
		"kaml_cmdq_batch_commits_total",
		"kaml_cmdq_occupancy",
		`kaml_gc_erases_total{log="0"}`,
		`kaml_wear_erase_max{log="0"}`,
		"kaml_ssd_nvram_staged_values",
		"kaml_ssd_index_entries",
		"# TYPE kaml_cmdq_stage_seconds histogram",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
	// Sanity: the workload's 64 Gets are visible in the stage histogram.
	if !strings.Contains(body, `kaml_cmdq_stage_seconds_count{op="Get",stage="total"} 64`) {
		t.Errorf("expected 64 traced Gets; exposition:\n%s", grepLines(body, "op=\"Get\",stage=\"total\""))
	}
}

func TestStatuszEndpoint(t *testing.T) {
	dev := runWorkload(t)
	srv := httptest.NewServer(admin.Handler(dev))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var status struct {
		Stats struct {
			Gets int64 `json:"Gets"`
			Puts int64 `json:"Puts"`
		} `json:"stats"`
		Telemetry struct {
			Metrics []struct {
				Name  string            `json:"name"`
				Kind  string            `json:"kind"`
				Count int64             `json:"count"`
				P99   float64           `json:"p99"`
				Label map[string]string `json:"labels"`
			} `json:"metrics"`
		} `json:"telemetry"`
	}
	if err := json.NewDecoder(res.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Stats.Gets != 64 || status.Stats.Puts != 64 {
		t.Errorf("stats gets=%d puts=%d, want 64/64", status.Stats.Gets, status.Stats.Puts)
	}
	found := false
	for _, m := range status.Telemetry.Metrics {
		if m.Name == "kaml_cmdq_stage_seconds" && m.Label["op"] == "Get" && m.Label["stage"] == "total" {
			found = true
			if m.Count != 64 {
				t.Errorf("Get/total count = %d, want 64", m.Count)
			}
			if m.P99 <= 0 {
				t.Errorf("Get/total p99 = %v, want > 0", m.P99)
			}
		}
	}
	if !found {
		t.Error("statusz missing kaml_cmdq_stage_seconds{op=Get,stage=total}")
	}
}

func TestPprofIndex(t *testing.T) {
	dev := runWorkload(t)
	srv := httptest.NewServer(admin.Handler(dev))
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("pprof index status %d", res.StatusCode)
	}
}

// grepLines returns the lines of s containing substr, for failure output.
func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
