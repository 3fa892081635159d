// Package nvme models the command transport between host software and SSD
// firmware: PCIe/NVMe submission and completion latency, a bounded queue
// depth, and the controller's pool of embedded CPU cores.
//
// The paper reports that 92–98% of per-command latency is "hardware" (PCIe
// link plus SSD internals) with the remaining 2–8% in host software; the
// fixed costs here reproduce that split. Firmware handlers execute in the
// context of the submitting actor after the submission delay, holding a
// controller core for their compute phases.
package nvme

import (
	"time"

	"github.com/kaml-ssd/kaml/internal/sim"
)

// Config describes the transport's timing and resources.
type Config struct {
	SubmissionLatency time.Duration // host doorbell -> firmware sees command
	CompletionLatency time.Duration // firmware completion -> host sees CQE
	HostSoftware      time.Duration // user-space + kernel driver per command
	QueueDepth        int           // max outstanding commands
	Cores             int           // embedded processors
	ProbeCost         time.Duration // controller CPU time per index slot scanned
	FirmwareFixedCost time.Duration // per-command firmware dispatch overhead
	InsertCost        time.Duration // CPU time to allocate a new index entry
}

// DefaultConfig mirrors DESIGN.md §5.
func DefaultConfig() Config {
	return Config{
		SubmissionLatency: 8 * time.Microsecond,
		CompletionLatency: 8 * time.Microsecond,
		HostSoftware:      2 * time.Microsecond,
		QueueDepth:        128,
		Cores:             24,
		ProbeCost:         18 * time.Microsecond,
		FirmwareFixedCost: 12 * time.Microsecond,
		InsertCost:        70 * time.Microsecond,
	}
}

// Controller is the simulated transport. Firmware layers (the block FTL and
// the KAML FTL) embed one and wrap their operations in Submit.
type Controller struct {
	cfg   Config
	eng   *sim.Engine
	queue *sim.Semaphore // outstanding-command limit
	cores *sim.Semaphore // embedded CPU pool
}

// New returns a controller on engine e.
func New(e *sim.Engine, cfg Config) *Controller {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	return &Controller{
		cfg:   cfg,
		eng:   e,
		queue: e.NewSemaphore("nvme-queue", cfg.QueueDepth),
		cores: e.NewSemaphore("nvme-cores", cfg.Cores),
	}
}

// Config returns the transport configuration.
func (c *Controller) Config() Config { return c.cfg }

// Submission charges the host-side cost of issuing one command: host
// software time plus the submission transfer, with a queue-pair slot held
// across the combined segment. The slot bounds concurrent DMA into the
// device, not device-side work — outstanding-command limits live in the
// firmware's command pipeline (internal/cmdq), which is what lets QueueDepth
// transfers overlap hundreds of microseconds of flash work.
//
// Charging the two costs as one timed segment keeps the hot path at a
// single timer park per submission. The host-software time riding inside
// the slot window widens each hold by HostSoftware (2µs at defaults),
// which is observable only past QueueDepth concurrent submissions.
func (c *Controller) Submission() {
	c.queue.Acquire()
	c.eng.Sleep(c.cfg.HostSoftware + c.cfg.SubmissionLatency)
	c.queue.Release()
}

// Completion charges the device-to-host completion path (CQE post plus the
// host observing it), holding a queue-pair slot for the transfer only.
func (c *Controller) Completion() {
	c.queue.Acquire()
	c.eng.Sleep(c.cfg.CompletionLatency)
	c.queue.Release()
}

// Submit runs fn as a firmware command handler in the calling actor's
// context between the submission and completion transfers — the legacy
// blocking transport, still used by the block-FTL baseline and admin
// commands. Unlike the pre-pipeline transport, the queue slot is NOT held
// across fn: device work never blocks other commands' transfers.
func (c *Controller) Submit(fn func()) {
	c.Submission()
	fn()
	c.Completion()
}

// Compute charges d of controller CPU time, competing for a core.
func (c *Controller) Compute(d time.Duration) {
	if d <= 0 {
		return
	}
	c.cores.Use(d)
}

// ComputeProbes charges CPU time for scanning n index slots plus the fixed
// per-command firmware cost.
func (c *Controller) ComputeProbes(n int) {
	c.Compute(c.cfg.FirmwareFixedCost + time.Duration(n)*c.cfg.ProbeCost)
}
