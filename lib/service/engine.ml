module Config = Ccc_cm2.Config
module Machine = Ccc_cm2.Machine
module Pattern = Ccc_stencil.Pattern
module Boundary = Ccc_stencil.Boundary
module Compile = Ccc_compiler.Compile
module Exec = Ccc_runtime.Exec
module Fft = Ccc_runtime.Fft
module Grid = Ccc_runtime.Grid
module Stats = Ccc_runtime.Stats
module Kernel = Ccc_runtime.Kernel
module Pool = Ccc_runtime.Pool
module Reference = Ccc_runtime.Reference
module Finding = Ccc_analysis.Finding
module Access = Ccc_analysis.Access
module Guard = Ccc_fault.Guard
module Obs = Ccc_obs.Obs
module Metrics = Ccc_obs.Metrics
module Flight = Ccc_obs.Flight

let src =
  Logs.Src.create "ccc.engine"
    ~doc:"Plan-cache, arena and rejection events of the persistent engine"

module Log = (val Logs.src_log src : Logs.LOG)

type error = Outcome.reject =
  | Parse_error of string
  | Rejected of Ccc_frontend.Diagnostics.t list
  | Resource_error of (int * Ccc_analysis.Finding.t) list
  | Too_small of string
  | Invalid_batch of string

let error_to_string = Outcome.reject_to_string

(* The cached kernel is verified once at miss time (against the
   reference evaluator and the cycle-accurate interpreter) and then
   reused verbatim across rebind hits: rebinding retargets coefficient
   and variable names only, never tap offsets, bias arity or stream
   count — exactly the data the lowering depends on.

   Since PR 10 an entry caches the compilation *result*, not just
   successes: a dense stencil the compiler rejects is remembered with
   its per-width findings, so every subsequent request falls through
   to the transform path without re-running the scheduler.  The entry
   also carries one standing {!Fft.plan} (like the arena, one standing
   shape: a shape change rebuilds it) together with the array names it
   was resolved from — a hit under renamed arrays rebuilds rather than
   trusting names the fingerprint deliberately canonicalizes away. *)
type entry = {
  compiled : (Compile.t * Kernel.t, (int * Finding.t) list) result;
  mutable fft : (string list * Fft.plan) option;
  mutable last_used : int;
}

(* Every counter the engine keeps lives in the metrics registry; the
   record below is just the resolved handles, so the hot paths touch
   one mutable cell instead of re-hashing the metric name. *)
type settings = {
  capacity : int;
  jobs : int;
  memory_words : int option;
  queue_depth : int;
  tenants : int;
  tile : (int * int) option;
      (* kernel tile geometry forwarded to every Exec call; [None]
         defers to the machine config's calibrated default *)
  backend : Exec.backend;
      (* Auto picks compiled vs transform per request by predicted
         cycles; Force_* pins one path for ablation runs *)
  widths : int list option;
      (* multistencil widths offered to the compiler; [None] defers to
         [Compile.candidate_widths] *)
}

let default_settings =
  {
    capacity = 32;
    jobs = 1;
    memory_words = None;
    queue_depth = 64;
    tenants = 16;
    tile = None;
    backend = Exec.Auto;
    widths = None;
  }

type t = {
  config : Config.t;
  config_fp : string;
  machine : Machine.t;
  arena : Exec.Arena.t;
  pool : Pool.t;
  settings : settings;
  eid : int;
      (* process-globally-unique engine id: the coordinator-only
         cache/tick probes are namespaced by it, so several engines
         alive at once (one per serve shard) each have their own owner
         in the access log *)
  cache : (string, entry) Hashtbl.t;
  obs : Obs.t;
  flight : Flight.t option;
      (* the shard's flight recorder, when serving; evictions, guard
         trips and degradations leave incident breadcrumbs there *)
  hits : Metrics.Counter.t;
  misses : Metrics.Counter.t;
  evictions : Metrics.Counter.t;
  compiles : Metrics.Counter.t;
  runs : Metrics.Counter.t;
  batches : Metrics.Counter.t;
  comm_cycles : Metrics.Counter.t;
  compute_cycles : Metrics.Counter.t;
  frontend_s : Metrics.Gauge.t;
  per_call_compute : Metrics.Histogram.t;
  arena_reuses : Metrics.Gauge.t;
  arena_rebuilds : Metrics.Gauge.t;
  kernel_verifies : Metrics.Counter.t;
  fft_runs : Metrics.Counter.t;
  fft_builds : Metrics.Counter.t;
  fft_rebinds : Metrics.Counter.t;
  fft_per_call : Metrics.Histogram.t;
  guard_detections : Metrics.Counter.t;
  guard_retries : Metrics.Counter.t;
  guard_recompiles : Metrics.Counter.t;
  guard_degraded : Metrics.Counter.t;
  mutable tick : int;
  owner : int;  (* raw id of the creating domain; entry points check it *)
}

type stats = {
  jobs : int;
  queue_depth : int;
  tenants : int;
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
  compiles : int;
  runs : int;
  batches : int;
  fft_runs : int;
  fft_builds : int;
  fft_rebinds : int;
  arena_reuses : int;
  arena_rebuilds : int;
  comm_cycles : int;
  compute_cycles : int;
  frontend_s : float;
  per_call_compute : (int * float * int) option;
  per_call_quantiles : (float * float * float) option;
}

(* One id per engine in the process (see the [eid] field). *)
let engine_ids = Atomic.make 0

let create ?obs ?flight ?(settings = default_settings) config =
  if settings.capacity < 1 then invalid_arg "Engine.create: capacity < 1";
  if settings.queue_depth < 1 then invalid_arg "Engine.create: queue_depth < 1";
  if settings.tenants < 1 then invalid_arg "Engine.create: tenants < 1";
  let obs =
    match obs with
    | Some o -> o
    | None -> Obs.v ~trace:Ccc_obs.Trace.disabled ~metrics:(Metrics.create ())
  in
  let m = obs.Obs.metrics in
  let machine = Machine.create ?memory_words:settings.memory_words config in
  {
    config;
    config_fp = Fingerprint.config config;
    machine;
    arena = Exec.Arena.create machine;
    pool = Pool.create ~jobs:settings.jobs;
    settings;
    eid = Atomic.fetch_and_add engine_ids 1;
    cache = Hashtbl.create 16;
    obs;
    flight;
    hits = Metrics.counter m "engine.cache.hits";
    misses = Metrics.counter m "engine.cache.misses";
    evictions = Metrics.counter m "engine.cache.evictions";
    compiles = Metrics.counter m "engine.compiles";
    runs = Metrics.counter m "engine.runs";
    batches = Metrics.counter m "engine.batches";
    comm_cycles = Metrics.counter m "engine.cycles.comm";
    compute_cycles = Metrics.counter m "engine.cycles.compute";
    frontend_s = Metrics.gauge m "engine.frontend_s";
    per_call_compute = Metrics.histogram m "engine.compute_cycles_per_call";
    arena_reuses = Metrics.gauge m "engine.arena.reuses";
    arena_rebuilds = Metrics.gauge m "engine.arena.rebuilds";
    kernel_verifies = Metrics.counter m "engine.kernel.verifies";
    fft_runs = Metrics.counter m "engine.fft.runs";
    fft_builds = Metrics.counter m "engine.fft.builds";
    fft_rebinds = Metrics.counter m "engine.fft.rebinds";
    fft_per_call = Metrics.histogram m "engine.fft.compute_cycles_per_call";
    guard_detections = Metrics.counter m "engine.guard.detections";
    guard_retries = Metrics.counter m "engine.guard.retries";
    guard_recompiles = Metrics.counter m "engine.guard.recompiles";
    guard_degraded = Metrics.counter m "engine.guard.degraded";
    tick = 0;
    owner = (Domain.self () :> int);
  }

(* The engine's cache, LRU tick and arena are coordinator-only state
   (DESIGN.md section 8): they are deliberately lock-free, so calling
   an entry point from any other domain would race.  The check makes
   the ownership rule fail fast with a structured finding instead of
   corrupting the cache. *)
let check_owner t who =
  let me = (Domain.self () :> int) in
  if me <> t.owner then
    raise
      (Finding.Failed
         [
           Finding.makef Finding.Ownership
             "Engine.%s called from domain %d: the engine (plan cache,               arena, pool) is owned by the domain that created it (%d);               share work through the pool, not the engine handle"
             who me t.owner;
         ])

let config t = t.config
let settings_of t = t.settings
let machine t = t.machine
let obs t = t.obs
let metrics t = t.obs.Obs.metrics
let pool t = t.pool
let jobs t = Pool.jobs t.pool
let shutdown t = Pool.shutdown t.pool

let stats (t : t) : stats =
  (* Absorb the arena's own counter family into the registry view. *)
  Metrics.Gauge.set t.arena_reuses (float_of_int (Exec.Arena.reuses t.arena));
  Metrics.Gauge.set t.arena_rebuilds
    (float_of_int (Exec.Arena.rebuilds t.arena));
  {
    jobs = t.settings.jobs;
    queue_depth = t.settings.queue_depth;
    tenants = t.settings.tenants;
    hits = Metrics.Counter.value t.hits;
    misses = Metrics.Counter.value t.misses;
    evictions = Metrics.Counter.value t.evictions;
    entries = Hashtbl.length t.cache;
    capacity = t.settings.capacity;
    compiles = Metrics.Counter.value t.compiles;
    runs = Metrics.Counter.value t.runs;
    batches = Metrics.Counter.value t.batches;
    fft_runs = Metrics.Counter.value t.fft_runs;
    fft_builds = Metrics.Counter.value t.fft_builds;
    fft_rebinds = Metrics.Counter.value t.fft_rebinds;
    arena_reuses = Exec.Arena.reuses t.arena;
    arena_rebuilds = Exec.Arena.rebuilds t.arena;
    comm_cycles = Metrics.Counter.value t.comm_cycles;
    compute_cycles = Metrics.Counter.value t.compute_cycles;
    frontend_s = Metrics.Gauge.value t.frontend_s;
    per_call_compute =
      (if Metrics.Histogram.count t.per_call_compute = 0 then None
       else
         Some
           ( int_of_float (Metrics.Histogram.min t.per_call_compute),
             Metrics.Histogram.mean t.per_call_compute,
             int_of_float (Metrics.Histogram.max t.per_call_compute) ));
    per_call_quantiles =
      (if Metrics.Histogram.count t.per_call_compute = 0 then None
       else
         Some
           ( Metrics.Histogram.p50 t.per_call_compute,
             Metrics.Histogram.p95 t.per_call_compute,
             Metrics.Histogram.p99 t.per_call_compute ));
  }

(* The field order below — identity, cache, work, arena, accumulated
   cycles, per-call — is shared with [Serve.pp_stats], which prints
   its own identity/admission/work lines in the same discipline and
   embeds this printer per shard.  Keep the two in lockstep: the cram
   suite pins both tables. *)
let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "engine: %d jobs, queue depth %d, %d tenants@\n\
     plan cache: %d hits, %d misses, %d evictions (%d/%d entries)@\n\
     compiles: %d  runs: %d  batches: %d@\n\
     fft: %d runs, %d builds, %d rebinds@\n\
     arena: %d reuses, %d rebuilds@\n\
     accumulated: comm %d cycles, compute %d cycles, front end %.6f s"
    s.jobs s.queue_depth s.tenants s.hits s.misses s.evictions s.entries
    s.capacity s.compiles s.runs s.batches s.fft_runs s.fft_builds
    s.fft_rebinds s.arena_reuses s.arena_rebuilds s.comm_cycles
    s.compute_cycles s.frontend_s;
  (match s.per_call_compute with
  | None -> ()
  | Some (min, mean, max) ->
      Format.fprintf ppf "@\nper call: compute min %d, mean %.0f, max %d cycles"
        min mean max);
  match s.per_call_quantiles with
  | None -> ()
  | Some (p50, p95, p99) ->
      Format.fprintf ppf "@\nper call: compute p50 %.0f, p95 %.0f, p99 %.0f cycles"
        p50 p95 p99

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key entry acc ->
        match acc with
        | Some (_, best) when best.last_used <= entry.last_used -> acc
        | _ -> Some (key, entry))
      t.cache None
  in
  match victim with
  | Some (key, _) ->
      Hashtbl.remove t.cache key;
      Access.write "engine.cache" t.eid;
      Metrics.Counter.incr t.evictions;
      Option.iter
        (fun ring -> Flight.record ring Flight.Cache_evict key)
        t.flight;
      Log.info (fun m -> m "plan cache eviction: %s" key)
  | None -> ()

(* Find or create the cache entry for [pattern].  Both outcomes of
   the scheduler are cached: a success with its verified kernel, and a
   rejection with its per-width findings — the latter so a dense
   stencil that falls through to the transform path pays the scheduler
   exactly once, then hits like any other plan. *)
let lookup_entry t pattern =
  Access.set_phase "compile";
  let fp = Fingerprint.pattern pattern in
  let key = fp ^ "|" ^ t.config_fp in
  match Hashtbl.find_opt t.cache key with
  | Some entry ->
      Access.read "engine.cache" t.eid;
      Metrics.Counter.incr t.hits;
      t.tick <- t.tick + 1;
      Access.write "engine.tick" t.eid;
      entry.last_used <- t.tick;
      Log.debug (fun m -> m "plan cache hit: %s" fp);
      entry
  | None ->
      Access.read "engine.cache" t.eid;
      Metrics.Counter.incr t.misses;
      Log.debug (fun m -> m "plan cache miss: %s" fp);
      let compiled =
        match
          Compile.compile ~obs:t.obs ?widths:t.settings.widths t.config pattern
        with
        | Error rejections ->
            Log.warn (fun m ->
                m "stencil %s rejected: %s" fp (Compile.no_workable rejections));
            Error rejections
        | Ok compiled ->
            Metrics.Counter.incr t.compiles;
            let kernel = Kernel.build t.config compiled in
            Metrics.Counter.incr t.kernel_verifies;
            Ok (compiled, kernel)
      in
      if Hashtbl.length t.cache >= t.settings.capacity then evict_lru t;
      t.tick <- t.tick + 1;
      Access.write "engine.tick" t.eid;
      let entry = { compiled; fft = None; last_used = t.tick } in
      Hashtbl.add t.cache key entry;
      Access.write "engine.cache" t.eid;
      entry

(* A hit may carry different coefficient or variable names than the
   cached compilation; rebind retargets the plans without redoing any
   scheduling, and the verified kernel carries over unchanged (it
   depends only on tap geometry and stream count, which the
   fingerprint pins). *)
let compile_entry t pattern =
  let entry = lookup_entry t pattern in
  match entry.compiled with
  | Ok (compiled, kernel) -> Ok (Compile.rebind compiled pattern, kernel)
  | Error rejections -> Error (Resource_error rejections)

let compile t pattern =
  check_owner t "compile";
  Result.map fst (compile_entry t pattern)

let recognize_statement source =
  match Ccc_frontend.Parser.parse_statement source with
  | stmt -> (
      match Ccc_frontend.Recognize.statement stmt with
      | Ok pattern -> Ok pattern
      | Error diags -> Error (Rejected diags))
  | exception Ccc_frontend.Parser.Error { line; message } ->
      Error (Parse_error (Printf.sprintf "line %d: %s" line message))

let compile_statement t source =
  match recognize_statement source with
  | Ok pattern -> compile t pattern
  | Error _ as e -> e

let record (t : t) (s : Stats.t) =
  Metrics.Counter.incr ~by:s.Stats.comm_cycles t.comm_cycles;
  Metrics.Counter.incr ~by:s.Stats.compute_cycles t.compute_cycles;
  Metrics.Gauge.add t.frontend_s s.Stats.frontend_s;
  Metrics.Histogram.observe t.per_call_compute
    (float_of_int s.Stats.compute_cycles)

let warn_rejection pattern e =
  Log.warn (fun m ->
      m "stencil %s rejected: %s" (Fingerprint.pattern pattern)
        (error_to_string e))

(* Global grid shape of the request, read off the bound source array
   (raises [Reference.Unbound] like the execution paths themselves). *)
let grid_shape pattern env =
  let src = Reference.lookup env (Pattern.source_var pattern) in
  (Grid.rows src, Grid.cols src)

(* Pick the execution path for this request: the settings' pinned
   backend, or — under [Auto] — whichever of the compiled and
   transform cycle models predicts fewer cycles for this shape
   (ties to compiled; a rejected stencil falls through to the
   transform).  Pure and deterministic given (settings, config,
   shape, compilation result). *)
let select (t : t) entry ~rows ~cols =
  let sub_rows = rows / t.config.Config.node_rows
  and sub_cols = cols / t.config.Config.node_cols in
  let compiled =
    match entry.compiled with Ok (c, _) -> Some c | Error _ -> None
  in
  Exec.select_backend ~backend:t.settings.backend ~sub_rows ~sub_cols t.config
    compiled

(* The entry's standing transform plan, resolved for this request:
   reuse when the shape and array names match (re-transforming only
   the coefficient image when values changed — counted as a rebind),
   rebuild otherwise.  Raises [Fft.Varying] on a non-uniform
   coefficient and [Finding.Failed] if the fresh plan fails its
   sandbox proof. *)
let fft_plan_for (t : t) entry pattern ~rows ~cols env =
  let names = Reference.referenced_arrays pattern in
  match entry.fft with
  | Some (cached_names, plan)
    when cached_names = names && Fft.rows plan = rows && Fft.cols plan = cols
    ->
      if Fft.rebind plan env then Metrics.Counter.incr t.fft_rebinds;
      plan
  | _ ->
      let plan = Fft.build pattern ~rows ~cols env in
      Metrics.Counter.incr t.fft_builds;
      entry.fft <- Some (names, plan);
      Access.write "engine.cache" t.eid;
      plan

let record_fft (t : t) (result : Exec.result) =
  Metrics.Counter.incr t.runs;
  Metrics.Counter.incr t.fft_runs;
  record t result.Exec.stats;
  Metrics.Histogram.observe t.fft_per_call
    (float_of_int result.Exec.stats.Stats.compute_cycles)

type degraded = Outcome.degraded = {
  output : Ccc_runtime.Grid.t;
  findings : Finding.t list;
  retries : int;
  recompiled : bool;
}

type outcome = Completed of Exec.result | Degraded of degraded

let outcome_of_guarded ~fingerprint = function
  | Ok (Completed result) -> Outcome.completed ~fingerprint result
  | Ok (Degraded detail) -> Outcome.degraded ~fingerprint detail
  | Error reject -> Outcome.refused ~fingerprint reject

(* How far a request trusts the substrate.  [Trust] is the paper's
   stance — the CM-2's ECC memory and lock-step sequencer are taken on
   faith, so a run pays no guard cost and anything unexpected escapes
   as an exception.  [Guard] rides the {!Guard} self-checks on every
   attempt and climbs the recovery ladder when they fire. *)
type policy = Trust | Guard of { inject : Exec.hooks; max_retries : int }

(* One execution path a request can be served on: a single attempt
   under the given hooks, the accounting of a success, and the
   root-cause rung — re-prove the cached artifacts and rebuild them,
   returning the fresh path with the diagnosis, or the findings to
   degrade with when the rebuild itself fails. *)
type path = {
  attempt : Exec.hooks -> Exec.result;
  account : Exec.result -> unit;
  rebuild : unit -> (path * Finding.t list, Finding.t list) result;
}

(* The single dispatcher behind {!run} and {!run_guarded}: select the
   path (compiled, transform, or the compiled fallback when the
   transform refuses a spatially-varying coefficient), then serve it
   through the recovery ladder — guarded attempt -> bounded same-path
   retries (a transient fault leaves nothing behind, so a re-run of the
   same cached artifacts comes back clean) -> re-prove and rebuild the
   cached artifacts (a poisoned cache entry fails its sandbox re-proof
   and is replaced) -> degrade to the host reference evaluator, which
   shares nothing with the simulated substrate.  Under [Guard] a
   detected fault never escapes as a wrong answer or a crash: the worst
   case is a slow, correct [Degraded] result.  Under [Trust] no attempt
   is ever judged faulty, so the ladder is one attempt. *)
let dispatch ?mode ?iterations t policy pattern env =
  let entry = lookup_entry t pattern in
  let reject e =
    warn_rejection pattern e;
    Error e
  in
  let retries = ref 0 in
  let degrade findings recompiled =
    Metrics.Counter.incr t.guard_degraded;
    Option.iter
      (fun ring ->
        Flight.record ring Flight.Degraded
          (Printf.sprintf "%s: reference path after %d retries"
             (Fingerprint.pattern pattern) !retries))
      t.flight;
    Log.warn (fun m ->
        m "degrading %s to the reference path after %d retries"
          (Fingerprint.pattern pattern) !retries);
    let output = Reference.apply pattern env in
    Ok (Degraded { output; findings; retries = !retries; recompiled })
  in
  let note_detection fs =
    Metrics.Counter.incr t.guard_detections;
    let first_finding =
      match fs with f :: _ -> Finding.to_string f | [] -> "unknown"
    in
    Option.iter
      (fun ring ->
        Flight.record ring Flight.Guard_trip
          (Fingerprint.pattern pattern ^ ": " ^ first_finding))
      t.flight;
    Log.warn (fun m ->
        m "guard detected a fault (%s): %s" (Fingerprint.pattern pattern)
          first_finding)
  in
  let judge path =
    match policy with
    | Trust -> (
        match path.attempt Exec.no_hooks with
        | result -> `Ok result
        | exception Exec.Too_small m -> `Too_small m)
    | Guard { inject; _ } -> (
        let watch = Guard.watch pattern in
        match path.attempt (Exec.compose_hooks inject watch.Guard.hooks) with
        | result -> (
            match
              !(watch.Guard.caught)
              @ Guard.check_output pattern env result.Exec.output
            with
            | [] -> `Ok result
            | fs -> `Faulty fs)
        | exception Exec.Too_small m -> `Too_small m
        | exception Finding.Failed fs -> `Faulty fs
        | exception exn ->
            `Faulty
              [
                Finding.makef Finding.Output_integrity
                  "guarded run crashed: %s" (Printexc.to_string exn);
              ])
  in
  let rec ladder path budget acc rebuilt =
    match judge path with
    | `Ok result ->
        path.account result;
        Ok (Completed result)
    | `Too_small m -> reject (Too_small m)
    | `Faulty fs -> (
        note_detection fs;
        let acc = acc @ fs in
        if budget > 0 then begin
          Metrics.Counter.incr t.guard_retries;
          incr retries;
          ladder path (budget - 1) acc rebuilt
        end
        else if rebuilt then degrade acc rebuilt
        else
          match path.rebuild () with
          | Ok (fresh, diagnosis) -> ladder fresh 0 (acc @ diagnosis) true
          | Error findings -> degrade (acc @ findings) rebuilt)
  in
  let serve path acc =
    let budget = match policy with Trust -> 0 | Guard g -> g.max_retries in
    ladder path budget acc false
  in
  let rec compiled_path compiled kernel =
    {
      attempt =
        (fun hooks ->
          Exec.run_arena ~obs:t.obs ?mode ?iterations ~pool:t.pool ~kernel
            ?tile:t.settings.tile ~hooks t.arena compiled env);
      account =
        (fun result ->
          Metrics.Counter.incr t.runs;
          record t result.Exec.stats);
      rebuild =
        (fun () ->
          (* Root-cause the cached artifacts before replacing them: the
             sandbox re-proof of the kernel and the dataflow verifier
             over every cached plan. *)
          let diagnosis =
            Guard.check_kernel t.config compiled kernel
            @ Guard.revalidate t.config compiled
          in
          Metrics.Counter.incr t.kernel_verifies;
          Metrics.Counter.incr t.guard_recompiles;
          match
            Compile.compile ~obs:t.obs ?widths:t.settings.widths t.config
              pattern
          with
          | Error _ -> Error diagnosis
          | Ok fresh ->
              Metrics.Counter.incr t.compiles;
              let fresh_kernel = Kernel.build t.config fresh in
              Metrics.Counter.incr t.kernel_verifies;
              let key = Fingerprint.pattern pattern ^ "|" ^ t.config_fp in
              t.tick <- t.tick + 1;
              Access.write "engine.tick" t.eid;
              Hashtbl.replace t.cache key
                {
                  compiled = Ok (fresh, fresh_kernel);
                  fft = entry.fft;
                  last_used = t.tick;
                };
              Access.write "engine.cache" t.eid;
              Ok (compiled_path fresh fresh_kernel, diagnosis));
    }
  in
  (* The transform path's rungs mirror the compiled ones: {!Fft.verify}
     is the root-cause re-proof of the cached spectrum, and a fresh
     {!Fft.build} replaces it. *)
  let rec fft_path ~rows ~cols plan =
    {
      attempt =
        (fun hooks ->
          Exec.run_fft ~obs:t.obs ?iterations ~pool:t.pool ~plan ~hooks
            t.machine pattern env);
      account = (fun result -> record_fft t result);
      rebuild =
        (fun () ->
          let diagnosis =
            match Fft.verify pattern plan with
            | () -> []
            | exception Finding.Failed fs -> fs
          in
          Metrics.Counter.incr t.guard_recompiles;
          match Fft.build pattern ~rows ~cols env with
          | fresh ->
              Metrics.Counter.incr t.fft_builds;
              entry.fft <- Some (Reference.referenced_arrays pattern, fresh);
              Access.write "engine.cache" t.eid;
              Ok (fft_path ~rows ~cols fresh, diagnosis)
          | exception Finding.Failed fs -> Error (diagnosis @ fs));
    }
  in
  let compiled_or_reject acc =
    match entry.compiled with
    | Ok (c, k) -> serve (compiled_path (Compile.rebind c pattern) k) acc
    | Error rejections -> reject (Resource_error rejections)
  in
  let guarded = match policy with Guard _ -> true | Trust -> false in
  let rows, cols = grid_shape pattern env in
  match select t entry ~rows ~cols with
  | `Compiled -> compiled_or_reject []
  | `Fft -> (
      match fft_plan_for t entry pattern ~rows ~cols env with
      | plan -> serve (fft_path ~rows ~cols plan) []
      | exception Fft.Varying _ ->
          (* Spatially-varying coefficients are not a convolution: the
             transform path refuses them, so serve the compiled plan
             when one exists and report the rejection otherwise. *)
          compiled_or_reject []
      | exception Finding.Failed fs when guarded -> (
          (* The fresh plan failed its own sandbox proof: fall back to
             the compiled plan when one exists, else the guarded
             contract still holds — degrade, never crash. *)
          match entry.compiled with
          | Ok _ -> compiled_or_reject fs
          | Error _ ->
              Metrics.Counter.incr t.guard_detections;
              degrade fs false))

let run ?mode ?iterations t pattern env =
  check_owner t "run";
  Result.map
    (function
      | Completed result -> result
      | Degraded _ -> assert false (* the trusting policy never degrades *))
    (dispatch ?mode ?iterations t Trust pattern env)

let run_guarded ?mode ?iterations ?(inject = Exec.no_hooks) ?(max_retries = 2)
    t pattern env =
  check_owner t "run_guarded";
  match
    dispatch ?mode ?iterations t (Guard { inject; max_retries }) pattern env
  with
  | exception Reference.Unbound name ->
      Error (Parse_error (Printf.sprintf "unbound array %s" name))
  | r -> r

let run_batch ?mode t patterns env =
  check_owner t "run_batch";
  let compile_all () =
    List.fold_left
      (fun acc p ->
        Result.bind acc (fun pairs ->
            Result.map (fun pair -> pair :: pairs) (compile_entry t p)))
      (Ok []) patterns
    |> Result.map List.rev
  in
  match Result.map_error (fun m -> Invalid_batch m) (Exec.check_batch patterns)
  with
  | Error e ->
      (match patterns with
      | p :: _ -> warn_rejection p e
      | [] -> Log.warn (fun m -> m "empty batch rejected"));
      Error e
  | Ok () -> (
      match compile_all () with
      | Error _ as e -> e
      | Ok pairs -> (
          match
            Exec.run_batch_arena ~obs:t.obs ?mode ~pool:t.pool
              ~kernels:(List.map snd pairs) ?tile:t.settings.tile t.arena
              (List.map fst pairs) env
          with
          | batch ->
              Metrics.Counter.incr t.batches;
              record t batch.Exec.batch_stats;
              Ok batch
          | exception Exec.Too_small m ->
              let e = Too_small m in
              warn_rejection (List.hd patterns) e;
              Error e))

let reset t =
  check_owner t "reset";
  Hashtbl.reset t.cache;
  Access.write "engine.cache" t.eid;
  Exec.Arena.reset t.arena;
  t.tick <- 0;
  Metrics.reset t.obs.Obs.metrics
