(** The run-time library's outer loop (section 5): distribute the
    arrays, perform all interprocessor communication up front, then
    drive the microcode over strips and half-strips.

    That loop is written once, as one staged pipeline: acquire
    placement, scatter the sources, fill the coefficient streams,
    exchange halos (the ["halo"] hook), compute (the ["compute"] hook),
    gather, then fold the statistics into the observability context.
    Every entry point below is that pipeline with three choices made:

    - {b placement}: a transient arena over the caller's machine,
      released before returning ({!run}, {!run_fused}, {!run_fft}), or
      an engine's standing {!Arena} ({!run_arena}, {!run_batch_arena});
    - {b statement set}: one statement, a same-source batch sharing one
      halo exchange ({!run_batch_arena}), or one fused multi-source
      statement with one exchange per source ({!run_fused}) — a single
      statement is a batch of one;
    - {b compute backend}: [Simulate] runs the cycle-accurate microcode
      interpreter on every node and asserts Cost = Interp; [Fast]
      computes the same data with the [Lowered] {!Kernel} walk (default)
      or the bounds-checked [Tapwalk] baseline, priced by
      {!Ccc_microcode.Cost} (which [Simulate] provably matches); the
      transform backend ({!run_fft}) convolves through an {!Fft} plan.

    The compiled backends report identical statistics and bit-identical
    outputs; [pool] runs the per-node loops — compute, scatter/gather,
    halo fill — across a {!Pool} of domains, and the [Lowered] walk
    additionally blocks each node's subgrid into [tile]-sized tiles
    (default {!Ccc_cm2.Config.t}[.tile]) so the pool's shared queue
    schedules (node, tile) items.  Outputs are bit-identical across
    every backend/inner-loop combination, every jobs value and every
    tile geometry; [Simulate] keeps asserting Cost = Interp on every
    node under the pool. *)

type mode = Simulate | Fast

(** The Fast inner loop: [Lowered] (default) is {!Kernel}'s
    preresolved offset walk; [Tapwalk] re-derives operand addresses
    from the tap list per element — kept as the measurable baseline
    the scaling benchmark compares against. *)
type inner = Tapwalk | Lowered

type result = { output : Grid.t; stats : Stats.t }

exception Too_small of string
(** The subgrid cannot accommodate the stencil (border width exceeds a
    subgrid side, or fewer rows than the multistencil needs). *)

(** {1 Chaos hooks}

    The fault-injection seam (see [Ccc_fault]): callbacks fired
    between the runtime phases and inside the pooled per-node compute
    loop.  The paper's CM-2 trusted ECC memory and a lock-step
    sequencer; the simulated substrate instead lets a deterministic
    injector corrupt state at exactly these points, and the guards of
    [Ccc_fault.Guard] prove the corruption is caught.  The default
    {!no_hooks} does nothing and costs one closure call per phase. *)

type phase_ctx = {
  phase : string;
      (** ["halo"] (after the exchange) or ["compute"] (after the
          inner loops) *)
  machine : Ccc_cm2.Machine.t;
  source : Dist.t option;
      (** the distributed source array feeding the halo exchange *)
  halo : Halo.exchange option;
  dst : Dist.t option;
  streams : Dist.t array;
}

type hooks = {
  on_phase : phase_ctx -> unit;
  on_compute_node : int -> unit;
      (** fired inside {!Pool.iter}, once per node before its inner
          loop (on the node's first tile under the tiled [Lowered]
          walk) — an exception here models a dying worker domain and
          surfaces through the pool's deterministic lowest-item
          re-raise *)
}

val no_hooks : hooks

val compose_hooks : hooks -> hooks -> hooks
(** [compose_hooks a b] fires [a] then [b] at every point — the way
    the conformance harness stacks a corrupting injector in front of
    the guards that must catch it. *)

val run :
  ?obs:Ccc_obs.Obs.t ->
  ?mode:mode ->
  ?primitive:Halo.primitive ->
  ?iterations:int ->
  ?pool:Pool.t ->
  ?inner:inner ->
  ?kernel:Kernel.t ->
  ?tile:int * int ->
  ?hooks:hooks ->
  Ccc_cm2.Machine.t ->
  Ccc_compiler.Compile.t ->
  Reference.env ->
  result
(** Execute one compiled stencil over host arrays.  [iterations]
    (default 1) scales the timing statistics the way the paper's
    sustained measurements loop the computation; the data result is
    that of a single application.  All temporaries allocated on the
    machine are released before returning.  [pool] (default
    sequential) parallelizes the per-node loops; [kernel] supplies a
    pre-verified lowering (the engine's cached one) — when absent the
    [Lowered] inner loop lowers on the fly, unverified (the qcheck
    properties cover it).  [tile] overrides the machine config's
    kernel blocking for this run (clamped to the subgrid; the result
    is bit-identical at every geometry).  [obs] (default disabled — one branch per
    phase, no allocation) opens a [run] span with [run.scatter] /
    [run.streams] / [run.halo] / [run.compute] (one [run.halfstrip]
    child per half-strip, cycle-priced by the analytic model) /
    [run.gather] / [run.frontend] children, and folds the run's
    {!Stats.t} into the context's metrics registry.  Spans and metrics
    are recorded only from the coordinating domain, outside the pooled
    loops. *)

(** {1 The transform backend}

    One global circular convolution through {!Fft} instead of
    per-node strip walking, as the pipeline's compute stage: the same
    phases and hook seam as {!run} — scatter, halo exchange (["halo"] hook),
    compute (["compute"] hook, {!hooks.on_compute_node} once per node
    while the global padded frame is assembled from that node's
    exchanged temporaries), gather — so the fault injectors and guards
    of [Ccc_fault] ride unchanged.  Statistics are priced by
    {!Ccc_microcode.Cost.fft_cycles}'s compute and transpose terms
    plus the real halo cycles. *)

val run_fft :
  ?obs:Ccc_obs.Obs.t ->
  ?primitive:Halo.primitive ->
  ?iterations:int ->
  ?pool:Pool.t ->
  ?plan:Fft.plan ->
  ?hooks:hooks ->
  Ccc_cm2.Machine.t ->
  Ccc_stencil.Pattern.t ->
  Reference.env ->
  result
(** Execute one stencil as a transform-domain convolution.  Takes the
    pattern directly — no compilation is needed, which is the point:
    dense kernels the compiler rejects still run here.  [plan]
    supplies a cached transform plan (the engine's), re-bound against
    this call's coefficient values before use; when absent a plan is
    built on the fly (unverified, like {!run}'s on-the-fly kernel —
    use {!Fft.build} for the verifying variant).  Raises
    {!Fft.Varying} on a spatially non-uniform coefficient and
    {!Too_small} when the border exceeds the subgrid.  Output is
    bit-identical across jobs values, and 1e-9-close (not
    bit-identical) to the direct paths. *)

val estimate_fft :
  ?primitive:Halo.primitive ->
  ?iterations:int ->
  sub_rows:int ->
  sub_cols:int ->
  Ccc_cm2.Config.t ->
  Ccc_stencil.Pattern.t ->
  Stats.t
(** {!estimate}'s transform-path counterpart: the statistics
    {!run_fft} would report for the given per-node subgrid shape,
    with the halo term from {!Halo.cycles_model}. *)

(** {1 Backend selection}

    The per-request planner of the serve plane: compiled multistencil
    or transform path, by predicted cycles. *)

type backend = Auto | Force_compiled | Force_fft

val backend_of_string : string -> backend option
(** ["auto"], ["compiled"], ["fft"] — the CLI's [--backend] values. *)

val backend_name : backend -> string

val select_backend :
  ?backend:backend ->
  sub_rows:int ->
  sub_cols:int ->
  Ccc_cm2.Config.t ->
  Ccc_compiler.Compile.t option ->
  [ `Compiled | `Fft ]
(** Choose the execution path for one request: a pure, deterministic
    function of the configuration, the compiled plans (or [None] when
    compilation was rejected) and the grid shape.  Under [Auto] the
    compiled path is priced by {!estimate} and the transform path by
    {!Ccc_microcode.Cost.fft_cycles}; ties go to the compiled path,
    whose results are bit-identical to the simulator.  [Auto] with no
    compiled plans is the dense-kernel fallthrough: [`Fft] instead of
    a resource rejection.  The caller remains responsible for FFT
    eligibility (spatially uniform coefficients). *)

(** {1 Arena-backed execution}

    {!run} runs in a transient arena, allocated and released per call
    — the faithful rendering of one Fortran statement.  A persistent
    engine ({!Ccc_service.Engine}) instead keeps the machine resident
    between requests; the arena below holds the standing regions
    (source and destination subgrids, coefficient streams, one padded
    halo temporary per source) so a repeated call of the same shape
    skips the allocate/release cycle entirely and pays only data
    movement. *)

module Arena : sig
  type t
  (** Standing per-node regions over one machine.  The node memories
      are bump allocators, so the arena caches exactly one shape
      profile (subgrid sides, per-source border widths, stream count):
      a matching request reuses every region in place; a different
      profile frees back to the arena's floor watermark and rebuilds. *)

  val create : Ccc_cm2.Machine.t -> t
  (** Take the floor watermark at the machine's current allocation
      top.  Anything the caller allocates afterwards is managed by the
      arena and released by profile changes and {!reset}. *)

  val machine : t -> Ccc_cm2.Machine.t

  val reuses : t -> int
  (** Calls served from the standing regions. *)

  val rebuilds : t -> int
  (** Calls that had to (re)build the regions: the first call, and
      every shape-profile change. *)

  val reset : t -> unit
  (** Release the standing regions back to the floor watermark. *)
end

val run_arena :
  ?obs:Ccc_obs.Obs.t ->
  ?mode:mode ->
  ?primitive:Halo.primitive ->
  ?iterations:int ->
  ?pool:Pool.t ->
  ?inner:inner ->
  ?kernel:Kernel.t ->
  ?tile:int * int ->
  ?hooks:hooks ->
  Arena.t ->
  Ccc_compiler.Compile.t ->
  Reference.env ->
  result
(** {!run} against standing arena regions: same checks, same data
    result (bit-identical), same statistics; repeated same-shape calls
    refill the standing regions instead of reallocating them. *)

type batch = { batch_results : result list; batch_stats : Stats.t }
(** Results of a batched run, one per statement in order, plus the
    aggregate.  Each statement's own stats carry zero communication
    cycles and zero per-call launch cost — those are paid once for
    the whole batch and appear in [batch_stats] (one halo exchange,
    one front-end call, summed compute and dispatch stalls). *)

val check_batch : Ccc_stencil.Pattern.t list -> (unit, string) Stdlib.result
(** The batch contract, checked without running anything: at least one
    statement, all naming the same source variable under the same
    boundary semantics.  [Error] carries the reason. *)

val run_batch_arena :
  ?obs:Ccc_obs.Obs.t ->
  ?mode:mode ->
  ?primitive:Halo.primitive ->
  ?pool:Pool.t ->
  ?inner:inner ->
  ?kernels:Kernel.t list ->
  ?tile:int * int ->
  Arena.t ->
  Ccc_compiler.Compile.t list ->
  Reference.env ->
  batch
(** Execute several compiled statements over the same source array
    behind a single halo exchange — the strength-reduced host loop of
    section 7, where the front end is "hard pressed to keep up" and
    every statement dispatched without its own setup helps.  All
    statements must name the same source variable and boundary
    semantics ([Invalid_argument] otherwise); the exchange is padded
    to the widest statement's border, and corner sections are fetched
    if any statement needs them (sound for the others, which never
    read corners).  [kernels], when given, must carry one pre-verified
    kernel per statement in order.  A batch of one statement is
    {!run_arena}: the same output bits, and [batch_stats] equal to its
    statistics. *)

val estimate :
  ?primitive:Halo.primitive ->
  ?iterations:int ->
  sub_rows:int ->
  sub_cols:int ->
  Ccc_cm2.Config.t ->
  Ccc_compiler.Compile.t ->
  Stats.t
(** Timing without data: the statistics [run] would report for a
    per-node subgrid of the given shape on the configured machine.
    The benchmark harness uses this for the paper's production-size
    rows (10^13 flops would be unreasonable to move through the
    simulator); tests pin it to [run]'s stats on small shapes. *)

(** {1 Multi-source (fused) execution}

    Executes a {!Ccc_compiler.Compile.fused} compilation — the
    future-work generalization that handles "all ten terms as one
    stencil pattern".  One halo exchange runs per source array, each
    padded to that source's own border width; everything downstream of
    communication (strips, half-strips, microcode, statistics, the
    [Simulate] checks) is the shared pipeline, under a [run.fused]
    root span. *)

val run_fused :
  ?obs:Ccc_obs.Obs.t ->
  ?mode:mode ->
  ?primitive:Halo.primitive ->
  ?iterations:int ->
  ?pool:Pool.t ->
  ?inner:inner ->
  ?tile:int * int ->
  Ccc_cm2.Machine.t ->
  Ccc_compiler.Compile.fused ->
  Reference.env ->
  result

val estimate_fused :
  ?primitive:Halo.primitive ->
  ?iterations:int ->
  sub_rows:int ->
  sub_cols:int ->
  Ccc_cm2.Config.t ->
  Ccc_compiler.Compile.fused ->
  Stats.t

val reference_fused : Ccc_stencil.Multi.t -> Reference.env -> Grid.t
(** Direct evaluation of a multi-source pattern: the oracle for
    [run_fused]. *)

val trace :
  ?width:int ->
  ?lines:int ->
  Ccc_cm2.Config.t ->
  Ccc_compiler.Compile.t ->
  string list
(** A cycle-by-cycle issue trace of one half-strip on a synthetic
    one-node sandbox: a header naming the plan width actually selected
    (and whether it was requested or the widest-available fallback),
    then one line per dynamic part showing the sequencer cycle, the
    subgrid row being processed, and the part issued.  [width] selects
    a plan (default: the widest); [lines] is the half-strip height
    (default 3).  Implemented over the span tracer: the half-strip is
    a span, each issue a cycle-timestamped child, and the lines are
    rendered from the recorded tree.  A debugging and teaching aid —
    the paper's authors "tested the microcode loops thoroughly" in
    exactly this style under the Lisp prototype's debugger. *)

val attribute :
  ?primitive:Halo.primitive ->
  sub_rows:int ->
  sub_cols:int ->
  Ccc_cm2.Config.t ->
  Ccc_compiler.Compile.t ->
  Ccc_obs.Profiler.breakdown
(** Per-phase cycle attribution for one statement on a per-node
    subgrid of the given shape: the same strips and half-strips
    {!estimate} prices, with the compute share opened up into the nine
    microcode phases of {!Ccc_obs.Profiler}.  The breakdown's compute
    total equals {!estimate}'s [compute_cycles] (and therefore the
    interpreter's cycle count) instruction-for-instruction — the
    paper's Table-1 split as live telemetry.  Raises {!Too_small} like
    {!estimate}. *)
