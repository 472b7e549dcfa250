package core

import "repro/internal/hw"

// Stats counts cache activity.
type Stats struct {
	ModulesEncoded  int // prompt module encodings performed (incl. re-encodes)
	ModulesReused   int // cache hits at serve time
	ModulesEvicted  int // evictions from the primary pool
	ModulesReloaded int // re-encodes forced by earlier eviction
	ModulesRestored int // modules loaded from a schema snapshot
	ModulesDemoted  int // evictions that kept states in the host pool
	ModulesPromoted int // demoted modules pulled back on reuse
	TokensEncoded   int // tokens run through prefill during encoding
	TokensReused    int // cached tokens spliced into served prompts

	ModulesSpilled int // evictions that wrote states to the disk tier
	DiskHits       int // module states read back from the disk tier
	DiskLoadErrors int // unreadable disk blobs (fell back to re-encode)
	DiskRetries    int // transient blob-read failures recovered by backoff retry
}

// Stats returns a snapshot of cache activity counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// StatsAPIVersion is the schema version of the Snapshot document.
// Dashboards check it before keying on field names; it bumps only on a
// breaking change (rename, removal, type change), never for additive
// fields.
const StatsAPIVersion = 1

// Snapshot is the one stats document: cache counters, tier occupancy,
// backend identity, the decode loop's scheduler block, and — when the
// matching subsystem is configured — admission and speculation blocks,
// each the subsystem's own stats struct. Cache.Snapshot assembles it and
// /v1/stats serializes it directly, so its JSON tags ARE the monitoring
// contract (pinned by the server's stats-contract golden test).
type Snapshot struct {
	APIVersion int `json:"api_version"`

	ModulesEncoded  int `json:"modules_encoded"`
	ModulesReused   int `json:"modules_reused"`
	ModulesEvicted  int `json:"modules_evicted"`
	ModulesReloaded int `json:"modules_reloaded"`
	TokensEncoded   int `json:"tokens_encoded"`
	TokensReused    int `json:"tokens_reused"`

	PoolBytes int64 `json:"pool_bytes"`
	// OpenSessions is transport state: the engine has no sessions
	// registry, so it is always 0 here and filled in by the serving
	// layer (internal/server) before serialization.
	OpenSessions int `json:"open_sessions"`

	Tiers   TierSnapshot    `json:"tiers"`
	Backend BackendSnapshot `json:"backend"`

	// Scheduler is always non-nil: every cache decodes.
	Scheduler *SchedStats `json:"scheduler"`
	// Optional blocks: non-nil exactly when their subsystem is
	// configured.
	Admission   *AdmissionStats `json:"admission,omitempty"`
	Speculation *SpecStats      `json:"speculation,omitempty"`
}

// TierSnapshot is storage-tier accounting: occupancy per tier plus the
// traffic between tiers (demotion/promotion for host, spill/hit for
// disk). TierAccountErrors reads 0 by construction: each tier's bytes
// are one ledger in the tier store, whose members are the modules the
// tier holds, so there is no second copy of an occupancy to drift.
type TierSnapshot struct {
	DeviceBytes       int64 `json:"device_bytes"`
	HostBytes         int64 `json:"host_bytes"`
	DiskBytes         int64 `json:"disk_bytes"`
	DiskModules       int   `json:"disk_modules"`
	ModulesDemoted    int   `json:"modules_demoted"`
	ModulesPromoted   int   `json:"modules_promoted"`
	ModulesSpilled    int   `json:"modules_spilled"`
	DiskHits          int   `json:"disk_hits"`
	DiskLoadErrors    int   `json:"disk_load_errors"`
	DiskRetries       int   `json:"disk_retries"`
	TierAccountErrors int   `json:"tier_account_errors"`
}

// BackendSnapshot identifies the kernel backend forward passes run on
// and what the runtime detected about the host. Outputs are
// bit-identical at any worker count, so this block explains latency
// numbers, never outputs.
type BackendSnapshot struct {
	Name     string `json:"name"`
	Workers  int    `json:"workers"`
	CPUArch  string `json:"cpu_arch"`
	CPUCores int    `json:"cpu_cores"`
	MaxProcs int    `json:"max_procs"`
	Vector   string `json:"vector"`
}

// Snapshot assembles the stats document. The counters, the three tiers'
// occupancy and the disk index size are read under one cache-lock hold,
// so they describe one moment; the self-synchronized subsystems
// (admission, scheduler, draft) are read after it, each once.
func (c *Cache) Snapshot() Snapshot {
	c.mu.Lock()
	st := c.stats
	tiers := TierSnapshot{
		DeviceBytes:     c.store.device.used,
		ModulesDemoted:  st.ModulesDemoted,
		ModulesPromoted: st.ModulesPromoted,
		ModulesSpilled:  st.ModulesSpilled,
		DiskHits:        st.DiskHits,
		DiskLoadErrors:  st.DiskLoadErrors,
		DiskRetries:     st.DiskRetries,
	}
	if h := c.store.host; h != nil {
		tiers.HostBytes = h.used
	}
	if d := c.store.disk; d != nil {
		tiers.DiskBytes = d.bytes
		tiers.DiskModules = len(d.index)
	}
	c.mu.Unlock()

	ss := c.sched.Stats()
	cpu := hw.DetectCPU()
	bk := c.m.Backend()
	snap := Snapshot{
		APIVersion:      StatsAPIVersion,
		ModulesEncoded:  st.ModulesEncoded,
		ModulesReused:   st.ModulesReused,
		ModulesEvicted:  st.ModulesEvicted,
		ModulesReloaded: st.ModulesReloaded,
		TokensEncoded:   st.TokensEncoded,
		TokensReused:    st.TokensReused,
		PoolBytes:       tiers.DeviceBytes,
		Tiers:           tiers,
		Scheduler:       &ss,
		Backend: BackendSnapshot{
			Name:     bk.Name(),
			Workers:  bk.Workers(),
			CPUArch:  cpu.Arch,
			CPUCores: cpu.Cores,
			MaxProcs: cpu.MaxProcs,
			Vector:   cpu.Vector,
		},
	}
	if c.adm != nil {
		as := c.adm.stats()
		snap.Admission = &as
	}
	if d := c.sched.draft; d != nil {
		ds := d.Stats()
		sp := &SpecStats{
			Enabled:       true,
			Observed:      ds.Observed,
			Classes:       ds.Classes,
			Contexts:      ds.Contexts,
			SpecSteps:     ss.SpecSteps,
			DraftProposed: ss.DraftProposed,
			DraftAccepted: ss.DraftAccepted,
		}
		if ss.DraftProposed > 0 {
			sp.AcceptRate = float64(ss.DraftAccepted) / float64(ss.DraftProposed)
		}
		snap.Speculation = sp
	}
	return snap
}

// SchedStats returns a snapshot of decode-loop activity — the
// document's scheduler block alone, for callers that diff step counts
// around one request (the benchmark's traced runs).
func (c *Cache) SchedStats() SchedStats { return c.sched.Stats() }
