package kaml_test

import (
	"reflect"
	"strings"
	"testing"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/cache"
	"github.com/kaml-ssd/kaml/internal/cluster"
	"github.com/kaml-ssd/kaml/internal/cmdq"
	"github.com/kaml-ssd/kaml/internal/kamlssd"
	"github.com/kaml-ssd/kaml/internal/shoremt"
	"github.com/kaml-ssd/kaml/internal/wal"
)

// TestPolicyStructFieldsArePinned lists the settable fields of every policy
// struct. A value that every caller passes alike is a constant, not an
// option, so a new field fails here until it has earned its place.
func TestPolicyStructFieldsArePinned(t *testing.T) {
	const rule = "a field needs two non-test callers that set different values; until then make it a constant (and update this pin)"
	pins := []struct {
		v      any
		fields string
	}{
		{kamlssd.Config{}, "NumLogs QueueDepthPerLog AutoGrowIndex PipelineDepth CoalesceWindow MaxCoalesceRecords CoalesceShards DisableTelemetry"},
		{cluster.Config{}, "Nodes Shards ReplicationFactor Device DeviceFaults Hedge ExpectedKeysPerShard Seed Engine"},
		{cluster.HedgeConfig{}, "Enabled InitDelay"},
		{shoremt.Config{}, "PoolFrames LogPages RecordsPerLock CheckpointEvery"},
		{wal.Config{}, "StartPage NumPages"},
		{cache.Config{}, "CapacityBytes RecordsPerLock"},
		{cmdq.Config{}, "Depth CoalesceWindow MaxBatchRecords CoalesceShards ClosedErr Registry"},
		{kaml.Options{}, "Flash Transport Firmware Faults Engine"},
		{kaml.NamespaceOptions{}, "ExpectedKeys Logs TreeIndex"},
		{kaml.CacheOptions{}, "CapacityBytes RecordsPerLock"},
	}
	for _, p := range pins {
		typ := reflect.TypeOf(p.v)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			got = append(got, typ.Field(i).Name)
		}
		if g := strings.Join(got, " "); g != p.fields {
			t.Errorf("%v has fields\n\t%s\nwant\n\t%s\n%s", typ, g, p.fields, rule)
		}
	}
}
