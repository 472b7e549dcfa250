package lint

// Config names the repo-specific objects each analyzer cares about.
// Functions are named as funcKey renders them: "pkg/path.Func" or
// "pkg/path.Type.Method" (no pointer-receiver distinction); struct
// fields as "pkg/path.Type.field". Fixture tests swap in configs
// naming their own types, so nothing here is hard-wired into the
// analyzers themselves.
type Config struct {
	// GuardedMutexes are the engine mutexes lockscope tracks.
	GuardedMutexes []string
	// LockedSuffix: a function whose name ends with this suffix (in a
	// package owning a guarded mutex) is assumed to run entirely with
	// that mutex held — the repo's *Locked naming convention.
	LockedSuffix string
	// HeavyFuncs must never be reached while a guarded mutex is held:
	// prefill/decode/generate, blob I/O, the quant codec.
	HeavyFuncs []string

	// Acquires are the functions that take module pins. Calls to them,
	// and PinField "++" statements, start a pinbalance obligation.
	Acquires []AcquireSpec
	// Releases discharge the obligation, as do PinField "--" statements.
	Releases []string
	// PinField is the refcount field itself ("pkg.Type.field").
	PinField string

	// OrderRoots are the ordering-sensitive entry points: every map
	// range in a function reachable from one must gather-then-sort.
	OrderRoots []string

	// CtxPackages/CtxPrefixes: exported functions in these packages
	// whose names start with one of these prefixes must accept and
	// forward a context.Context.
	CtxPackages []string
	CtxPrefixes []string

	// ErrPackages: function-scope errors.New / fmt.Errorf without %w in
	// these packages break the errors.Is taxonomy and are reported.
	ErrPackages []string
}

// AcquireSpec is one pin-taking function.
type AcquireSpec struct {
	Func string
	// OwnErrorExempt marks acquires documented to retain nothing when
	// they themselves fail (planServeLocked: "On error no pins are
	// retained") — returning that same error unreleased is fine.
	OwnErrorExempt bool
}

// DefaultConfig is the curated configuration for this repository.
func DefaultConfig() *Config {
	const core = "repro/internal/core"
	const model = "repro/internal/model"
	const tensor = "repro/internal/tensor"
	return &Config{
		GuardedMutexes: []string{
			core + ".Cache.mu",
			core + ".Scheduler.mu",
			// The draft source's table lock: Propose runs on the scheduler's
			// decode path between fused steps, so nothing heavy may ever run
			// under it.
			"repro/internal/mining.Draft.mu",
		},
		LockedSuffix: "Locked",
		HeavyFuncs: []string{
			model + ".Model.Prefill",
			model + ".Model.PrefillCtx",
			model + ".Model.Decode",
			model + ".Model.DecodeStepBatch",
			// The fused step at any width: as heavy as DecodeStepBatch times
			// the draft depth.
			model + ".Model.DecodeStepBatchMulti",
			model + ".Model.Generate",
			model + ".Model.GenerateStream",
			model + ".Model.generate",
			model + ".Model.Complete",
			core + ".diskTier.writeBlob",
			core + ".diskTier.readBlob",
			"repro/internal/quant.EncodeKV",
			"repro/internal/quant.DecodeKV",
			// Backend kernel entry points: the heaviest compute in the
			// repo. The callgraph is static, so calls through the Backend
			// interface are invisible — listing both concrete backends
			// catches direct kernel calls and keeps any future
			// lock-then-compute shortcut from slipping in.
			tensor + ".scalarBackend.MatMul",
			tensor + ".scalarBackend.AttendRowBlock",
			tensor + ".scalarBackend.OutputHead",
			tensor + ".parallelBackend.MatMul",
			tensor + ".parallelBackend.AttendRowBlock",
			tensor + ".parallelBackend.OutputHead",
		},

		Acquires: []AcquireSpec{
			// "On error no pins are retained" (engine.go).
			{Func: core + ".Cache.planServeLocked", OwnErrorExempt: true},
			{Func: core + ".Cache.acquireModuleLocked", OwnErrorExempt: true},
			// Pins recorded in plan.pinned; the caller unpins on error.
			{Func: core + ".Cache.resolveDiskParts"},
			// An admission slot is a pin on serving capacity: leaking one
			// on an error path shrinks MaxConcurrent forever. Admit's own
			// shed/deadline error holds no slot.
			{Func: core + ".Cache.Admit", OwnErrorExempt: true},
		},
		Releases: []string{
			core + ".Cache.unpinModules",
			core + ".pinSet.release",
			core + ".ServeResult.Close",
			core + ".Cache.AdmitRelease",
		},
		PinField: core + ".EncodedModule.pins",

		OrderRoots: []string{
			// Token emission: the PR 2 argument-ordering bug class.
			core + ".Cache.gatherNewTokens",
			core + ".Cache.BaselineServeParsed",
			// Scheduler lane joins and retirement order.
			core + ".Scheduler.run",
			core + ".Scheduler.advance",
			// The fused step and settle: token emission across lanes
			// (already reachable from run; listed so the root survives a
			// future refactor that severs that path).
			core + ".Scheduler.step",
			// Manifest writing: warm restarts replay this byte stream.
			core + ".Cache.SaveAll",
			core + ".Cache.SaveSchemaStates",
		},

		CtxPackages: []string{core, "repro/promptcache"},
		CtxPrefixes: []string{"Serve", "Baseline", "Generate", "Infer", "Continue", "Send", "NewSession"},

		ErrPackages: []string{core, "repro/promptcache"},
	}
}
