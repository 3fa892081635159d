package experiments

// Experiment is one entry of the suite kamlbench runs: its ID, what it
// measures, and the function that produces its tables.
type Experiment struct {
	ID, Desc string
	Run      func(Scale) []*Table
}

// Catalog lists the suite in the order kamlbench runs and prints it.
func Catalog() []Experiment {
	wrap1 := func(f func(Scale) *Table) func(Scale) []*Table {
		return func(s Scale) []*Table { return []*Table{f(s)} }
	}
	return []Experiment{
		{"fig5", "bandwidth: Get/Put vs read/write (Fetch, Update, Insert)", Fig5},
		{"fig6", "latency: Get/Put vs read/write", Fig6},
		{"fig7", "effect of Put batch size", Fig7},
		{"fig8", "effect of number of logs", wrap1(Fig8)},
		{"fig9", "OLTP: TPC-B and TPC-C, KAML vs Shore-MT", wrap1(Fig9)},
		{"fig10", "YCSB A/B/C/D/F, KAML vs Shore-MT", wrap1(Fig10)},
		{"conflicts", "locking-granularity conflict analysis (§V-D.2)", wrap1(Conflicts)},
		{"ablations", "extra ablations: checkpoint interference, lock-granularity sweep, write amplification", Ablations},
		{"qdsweep", "queue-depth sweep: pipelined Get/Put scaling and Put coalescing", wrap1(QDSweep)},
		{"sisweep", "isolation sweep: SS2PL vs snapshot isolation, hot-key RMW abort rate and reader coexistence", SISweep},
		{"getscale", "concurrent Get scaling: wall-clock gets/s and allocs per Get vs reader count", wrap1(GetScale)},
		{"kamlcluster", "sharded replicated cluster: per-shard Get SLO with hedged reads, live migration, forced failover", wrap1(KamlCluster)},
		{"traffic", "production traffic scenarios: all checked-in scenarios with per-phase stats and assertion verdicts", wrap1(TrafficScenarios)},
	}
}
