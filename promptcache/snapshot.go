package promptcache

import (
	"time"

	"repro/internal/core"
	"repro/internal/hw"
)

// StatsAPIVersion is the schema version of the Snapshot document.
// Dashboards check it before keying on field names; it bumps only on a
// breaking change (rename, removal, type change), never for additive
// fields.
const StatsAPIVersion = 1

// Snapshot is the one consolidated observability document: cache
// counters, tier occupancy, backend identity, and — when the matching
// subsystem is enabled — mining, admission, scheduler and speculation
// blocks. Client.Snapshot assembles it and /v1/stats serializes it
// directly, so its JSON tags ARE the monitoring contract (pinned by the
// server's stats-contract golden test).
type Snapshot struct {
	APIVersion int `json:"api_version"`

	ModulesEncoded  int `json:"modules_encoded"`
	ModulesReused   int `json:"modules_reused"`
	ModulesEvicted  int `json:"modules_evicted"`
	ModulesReloaded int `json:"modules_reloaded"`
	TokensEncoded   int `json:"tokens_encoded"`
	TokensReused    int `json:"tokens_reused"`

	PoolBytes int64 `json:"pool_bytes"`
	// OpenSessions is transport state: a Client has no sessions registry,
	// so it is always 0 in Client.Snapshot and filled in by the serving
	// layer (internal/server) before serialization.
	OpenSessions int `json:"open_sessions"`

	Tiers   TierSnapshot    `json:"tiers"`
	Backend BackendSnapshot `json:"backend"`

	// Optional blocks, present exactly when their subsystem is enabled.
	Mining      *MiningSnapshot    `json:"mining,omitempty"`
	Admission   *AdmissionSnapshot `json:"admission,omitempty"`
	Scheduler   *SchedulerSnapshot `json:"scheduler,omitempty"`
	Speculation *SpecStats         `json:"speculation,omitempty"`
}

// TierSnapshot is storage-tier accounting: occupancy per tier plus the
// traffic between tiers (demotion/promotion for host, spill/hit for
// disk). TierAccountErrors nonzero means a pool release failed and an
// occupancy number can no longer be trusted.
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

// MiningSnapshot is the module-mining block: the observer tree's size,
// prefixes past threshold but unpromoted, the mined-module inventory,
// and the prefill tokens mined hits actually saved.
type MiningSnapshot struct {
	Observed        uint64 `json:"observed"`
	Classes         int    `json:"classes"`
	Nodes           int    `json:"nodes"`
	Candidates      int    `json:"candidates"`
	LiveModules     int    `json:"live_modules"`
	Promotions      int    `json:"promotions"`
	Demotions       int    `json:"demotions"`
	Hits            int    `json:"hits"`
	HitTokensSaved  int    `json:"hit_tokens_saved"`
	SnapshotSkipped int    `json:"snapshot_skipped"`
}

// AdmissionSnapshot is the admission-control block: configured bounds,
// live occupancy, per-class admit/shed/cancel accounting, and the
// Retry-After a shed request would be told right now.
type AdmissionSnapshot struct {
	MaxConcurrent int                    `json:"max_concurrent"`
	MaxQueue      int                    `json:"max_queue"`
	Inflight      int                    `json:"inflight"`
	QueueDepth    int                    `json:"queue_depth"`
	RetryAfterMs  float64                `json:"retry_after_ms"`
	Interactive   AdmissionClassSnapshot `json:"interactive"`
	Batch         AdmissionClassSnapshot `json:"batch"`
}

// AdmissionClassSnapshot is one SLO class's slice of admission activity.
type AdmissionClassSnapshot struct {
	Admitted   int64 `json:"admitted"`
	Shed       int64 `json:"shed"`
	Canceled   int64 `json:"canceled"`
	Completed  int64 `json:"completed"`
	QueueDepth int   `json:"queue_depth"`
}

// SchedulerSnapshot is the decode-scheduler block: whether mixed traffic
// is actually fusing (BatchHist beyond index 0), how deep the join queue
// runs, and decode-phase throughput.
type SchedulerSnapshot struct {
	MaxBatch       int     `json:"max_batch"`
	QueueDepth     int     `json:"queue_depth"`
	ActiveLanes    int     `json:"active_lanes"`
	LanesJoined    int64   `json:"lanes_joined"`
	LanesRetired   int64   `json:"lanes_retired"`
	LanesCancelled int64   `json:"lanes_cancelled"`
	FusedSteps     int64   `json:"fused_steps"`
	TokensDecoded  int64   `json:"tokens_decoded"`
	BatchHist      []int64 `json:"batch_hist"`
	TokensPerSec   float64 `json:"tokens_per_sec"`
}

// Snapshot assembles the consolidated stats document from every
// subsystem in one call. OpenSessions is left 0 for the transport to
// fill (a Client holds no sessions registry).
func (c *Client) Snapshot() Snapshot {
	st := c.cache.Stats()
	eng := c.cache
	cpu := hw.DetectCPU()
	bk := c.Model().Backend()
	snap := Snapshot{
		APIVersion:      StatsAPIVersion,
		ModulesEncoded:  st.ModulesEncoded,
		ModulesReused:   st.ModulesReused,
		ModulesEvicted:  st.ModulesEvicted,
		ModulesReloaded: st.ModulesReloaded,
		TokensEncoded:   st.TokensEncoded,
		TokensReused:    st.TokensReused,
		PoolBytes:       eng.PoolUsed(),
		Tiers: TierSnapshot{
			DeviceBytes:       eng.PoolUsed(),
			HostBytes:         eng.HostUsed(),
			DiskBytes:         eng.DiskUsed(),
			DiskModules:       eng.DiskModules(),
			ModulesDemoted:    st.ModulesDemoted,
			ModulesPromoted:   st.ModulesPromoted,
			ModulesSpilled:    st.ModulesSpilled,
			DiskHits:          st.DiskHits,
			DiskLoadErrors:    st.DiskLoadErrors,
			DiskRetries:       st.DiskRetries,
			TierAccountErrors: st.TierAccountErrors,
		},
		Backend: BackendSnapshot{
			Name:     bk.Name(),
			Workers:  bk.Workers(),
			CPUArch:  cpu.Arch,
			CPUCores: cpu.Cores,
			MaxProcs: cpu.MaxProcs,
			Vector:   cpu.Vector,
		},
	}
	if ms := c.cache.MiningStats(); ms.Enabled {
		snap.Mining = &MiningSnapshot{
			Observed:        ms.Observed,
			Classes:         ms.Classes,
			Nodes:           ms.Nodes,
			Candidates:      ms.Candidates,
			LiveModules:     ms.LiveModules,
			Promotions:      ms.Promotions,
			Demotions:       ms.Demotions,
			Hits:            ms.Hits,
			HitTokensSaved:  ms.HitTokens,
			SnapshotSkipped: ms.SnapshotSkipped,
		}
	}
	if as := c.cache.AdmissionStats(); as.Enabled {
		snap.Admission = &AdmissionSnapshot{
			MaxConcurrent: as.MaxConcurrent,
			MaxQueue:      as.MaxQueue,
			Inflight:      as.Inflight,
			QueueDepth:    as.QueueDepth,
			RetryAfterMs:  float64(as.RetryAfterEstimate) / float64(time.Millisecond),
			Interactive:   admissionClassSnapshot(as.Interactive),
			Batch:         admissionClassSnapshot(as.Batch),
		}
	}
	if ss := c.cache.SchedStats(); ss.Enabled {
		snap.Scheduler = &SchedulerSnapshot{
			MaxBatch:       ss.MaxBatch,
			QueueDepth:     ss.QueueDepth,
			ActiveLanes:    ss.ActiveLanes,
			LanesJoined:    ss.LanesJoined,
			LanesRetired:   ss.LanesRetired,
			LanesCancelled: ss.LanesCancelled,
			FusedSteps:     ss.Steps,
			TokensDecoded:  ss.TokensDecoded,
			BatchHist:      ss.BatchHist,
			TokensPerSec:   ss.TokensPerSec(),
		}
	}
	if c.cache.SpecEnabled() {
		sp := c.cache.SpecStats()
		snap.Speculation = &sp
	}
	return snap
}

func admissionClassSnapshot(cs core.AdmissionClassStats) AdmissionClassSnapshot {
	return AdmissionClassSnapshot{
		Admitted:   cs.Admitted,
		Shed:       cs.Shed,
		Canceled:   cs.Canceled,
		Completed:  cs.Completed,
		QueueDepth: cs.QueueDepth,
	}
}
