(* The three workloads: input generation from the seed, cold set-up,
   the closed measurement loop and the output checks.  Everything the
   program sees is generated here from [seed]; the program is driven
   only through [Engine] and [Serve].  Why each workload exists is in
   README.md. *)

module E = Ccc.Engine
module G = Ccc.Grid
module P = Ccc.Pattern
module S = Ccc.Serve

let config = Ccc.Config.default

type kind = Seismic_steady | Dense_fft | Serve_mix

let kinds =
  [ ("seismic-steady", Seismic_steady); ("dense-fft", Dense_fft); ("serve-mix", Serve_mix) ]

let kind_of_string s = List.assoc_opt s kinds

(* How long the measurement loop runs: wall seconds of measured work,
   or a fixed number of calls (the determinism test). *)
type length = Seconds of float | Calls of int

(* One distinct stencil of a workload: its Fortran text, its pattern
   and its coefficient arrays (the source array is bound per call). *)
type stencil = { text : string; pattern : P.t; coeffs : Ccc.Reference.env }

type inputs = {
  kind : kind;
  n : int;  (** global grid side *)
  jobs : int;  (** engine pool size *)
  stencils : stencil array;
  rng : Random.State.t;  (** per-call inputs, drawn in call order *)
  first_source : G.t;  (** the set-up calls' source *)
}

let random_grid rng n lo hi =
  G.init ~rows:n ~cols:n (fun _ _ -> lo +. Random.State.float rng (hi -. lo))

let stencil_of_pattern p coeffs = { text = P.to_fortran p; pattern = p; coeffs }

let coeff_names p =
  List.filter_map (fun t -> Ccc.Coeff.array_name t.Ccc.Tap.coeff) (P.taps p)

(* The Gordon Bell kernel with positive coefficient fields normalised
   to sum to one at every point: each step is a convex combination of
   the previous one, so the chained time steps stay bounded. *)
let seismic rng n =
  let p = Ccc.Seismic.kernel () in
  let names = coeff_names p in
  let raw = List.map (fun name -> (name, random_grid rng n 0.5 1.5)) names in
  let total =
    G.init ~rows:n ~cols:n (fun r c ->
        List.fold_left (fun a (_, g) -> a +. G.get g r c) 0.0 raw)
  in
  let coeffs =
    List.map (fun (name, g) -> (name, G.map2 ( /. ) g total)) raw
  in
  stencil_of_pattern p coeffs

(* A normalised 9x9 Gaussian: 81 scalar taps, circular boundary. *)
let gaussian9 () =
  let taps =
    List.concat_map
      (fun dr ->
        List.map
          (fun dc -> (dr, dc, exp (-.float_of_int ((dr * dr) + (dc * dc)) /. 8.0)))
          (List.init 9 (fun i -> i - 4)))
      (List.init 9 (fun i -> i - 4))
  in
  let total = List.fold_left (fun a (_, _, w) -> a +. w) 0.0 taps in
  P.create ~boundary:Ccc.Boundary.Circular
    (List.map
       (fun (drow, dcol, w) ->
         Ccc.Tap.make (Ccc.Offset.make ~drow ~dcol) (Ccc.Coeff.Scalar (w /. total)))
       taps)

(* The gallery's coefficient arrays renamed C<k> -> W<k>: the same
   fingerprint, so the plan cache serves it through Compile.rebind. *)
let renamed p =
  let rename = function
    | Ccc.Coeff.Array name -> Ccc.Coeff.Array ("W" ^ String.sub name 1 (String.length name - 1))
    | c -> c
  in
  P.create ~boundary:(P.boundary p) ~source:(P.source_var p) ~result:(P.result_var p)
    (List.map (fun t -> Ccc.Tap.make t.Ccc.Tap.offset (rename t.Ccc.Tap.coeff)) (P.taps p))

(* The five gallery stencils and their renamed twins over one shared
   table of coefficient arrays, so that two different stencils can be
   sent with one physically shared environment and meet in one batch. *)
let serve_stencils rng n =
  let patterns = List.concat_map (fun (_, p) -> [ p; renamed p ]) (P.gallery ()) in
  let widest = List.fold_left (fun a p -> max a (P.tap_count p)) 0 patterns in
  let scale = 1.0 /. float_of_int widest in
  let table =
    List.concat_map
      (fun prefix ->
        List.init widest (fun k ->
            (Printf.sprintf "%s%d" prefix (k + 1), random_grid rng n (-.scale) scale)))
      [ "C"; "W" ]
  in
  List.map (fun p -> stencil_of_pattern p table) patterns

let inputs ~seed kind =
  let rng = Random.State.make [| seed |] in
  let n, jobs, stencils =
    match kind with
    | Seismic_steady -> (256, 2, [| seismic rng 256 |])
    | Dense_fft -> (256, 2, [| stencil_of_pattern (gaussian9 ()) [] |])
    | Serve_mix -> (64, 1, Array.of_list (serve_stencils rng 64))
  in
  let first_source = random_grid rng n (-1.0) 1.0 in
  { kind; n; jobs; stencils; rng; first_source }

let env_of st src = (P.source_var st.pattern, src) :: st.coeffs

(* The cases the traced run times layer by layer: every distinct
   stencil, except that a renamed serve variant has the same shapes
   and cost as its base and is skipped. *)
let layer_cases i =
  match i.kind with
  | Serve_mix -> List.filteri (fun k _ -> k mod 2 = 0) (Array.to_list i.stencils)
  | Seismic_steady | Dense_fft -> Array.to_list i.stencils

let settings i = { E.default_settings with jobs = i.jobs }

(* Each workload's tail percentile, fixed per workload: p99 where a
   run at the benchmark's length keeps over 100 samples beyond it
   (seismic-steady measures about 1.8 x 10^4 calls), p95 elsewhere
   (dense-fft about 2.1 x 10^3 calls, serve-mix about 5.4 x 10^3, where
   p99 would rest on 20-55 samples).  A p99 resting on a few dozen
   samples swung between runs with sampling noise alone, and a
   percentile picked per run from the sample count would flip between
   runs and make the figures incomparable. *)
let tail_percentile i =
  match i.kind with
  | Seismic_steady -> ("p99", 0.99)
  | Dense_fft | Serve_mix -> ("p95", 0.95)

(* The paper's unit: useful flops of one application. *)
let flops_per_call i st = float_of_int (P.useful_flops_per_point st.pattern * i.n * i.n)

(* ------------------------------------------------------------------ *)
(* Results.                                                            *)

(* One measured call: when it finished (seconds into the measured
   window), how long it took, and the useful flops of its result (0
   when it failed or was wrong). *)
type call = { done_at : float; latency : float; flops : float }

(* One served request as the scheduler saw it, next to the latency
   the caller measured for it. *)
type serve_sample = { queued_us : float; service_us : float; batched : int; caller_us : float }

type result = {
  setup_s : float;  (** seconds of the cold set-up *)
  calls : call list;  (** the measured calls, in completion order *)
  window_s : float;  (** wall seconds the measured calls cover *)
  attempted : int;  (** set-up calls plus measured calls *)
  failed : int;  (** failed, refused, shed, degraded or wrong *)
  checked : int;  (** outputs compared against the reference *)
  problems : string list;  (** every failed check, described *)
  checksums : int64 list;  (** measured outputs in call order, [Calls] only *)
  fft_runs : int;  (** transform-path runs during the measured loop *)
  engine : E.stats list;  (** the workload's engine counters at the end *)
  serve : serve_sample list;  (** per measured request, serve-mix only *)
  coalesced_ratio : float;  (** serve-mix only *)
  lanes : Ccc.Trace.lane list;  (** recorded spans when traced *)
}

(* Output checks, outside every timed region. *)
type checker = { mutable checked : int; mutable problems : string list }

let checker () = { checked = 0; problems = [] }
let problem ck fmt = Printf.ksprintf (fun m -> ck.problems <- m :: ck.problems) fmt

let check_reference ck what st env out =
  ck.checked <- ck.checked + 1;
  let d = G.max_abs_diff (Ccc.Reference.apply st.pattern env) out in
  (* [not (d <= tol)] also catches NaN *)
  if not (d <= 1e-9) then (problem ck "%s: |output - reference| = %g" what d; false)
  else true

let checksum = Ccc.Guard.grid_checksum

let keep_going length ~calls ~elapsed =
  match length with Seconds s -> elapsed < s | Calls n -> calls < n

let obs_for traced =
  if traced then Some (Ccc.Obs.create ~clock:Util.now_us ()) else None

(* One cold set-up, timed by [setup], which returns the live handle,
   its seconds, and (stencil, env, output) for every distinct stencil;
   the outputs are checked against the reference afterwards. *)
let cold_setup ck failed setup =
  let h, dt, outs = setup () in
  List.iter
    (fun (st, env, out) ->
      match out with
      | Some out -> if not (check_reference ck "set-up" st env out) then incr failed
      | None -> ())
    outs;
  (h, dt)

(* ------------------------------------------------------------------ *)
(* seismic-steady and dense-fft: one resident engine, closed loop.     *)

let run_engine ~traced ~length i =
  let st = i.stencils.(0) in
  let p = st.pattern in
  let ck = checker () in
  let attempted = ref 0 and failed = ref 0 in
  let call e env =
    incr attempted;
    match E.run e p env with
    | Ok r -> Some r.Ccc.Exec.output
    | Error err ->
        incr failed;
        problem ck "run: %s" (E.error_to_string err);
        None
  in
  (* cold set-up: a fresh engine until the stencil returned one result *)
  let setup () =
    let obs = obs_for traced in
    let env = env_of st i.first_source in
    let t0 = Util.now_s () in
    let e = E.create ?obs ~settings:(settings i) config in
    let out = call e env in
    ((e, obs), Util.now_s () -. t0, [ (st, env, out) ])
  in
  let (e, obs), setup_s = cold_setup ck failed setup in
  (* The jobs = 1 twin for the bit-identity check, warmed outside the
     loop.  Node memory size changes no output bit, so the twin gets a
     small machine and the process's peak memory stays the workload
     engine's. *)
  let e1 =
    E.create ~settings:{ (settings i) with jobs = 1; memory_words = Some (1 lsl 17) } config
  in
  ignore (E.run e1 p (env_of st i.first_source));
  let every =
    match length with
    | Calls _ -> 1
    | Seconds _ -> if i.kind = Dense_fft then 64 else 512
  in
  let before = E.stats e in
  let src = ref i.first_source in
  let records = ref [] and window = ref 0.0 and calls = ref 0 in
  let sums = ref [] in
  while keep_going length ~calls:!calls ~elapsed:!window do
    let source =
      match i.kind with Dense_fft -> random_grid i.rng i.n (-1.0) 1.0 | _ -> !src
    in
    let env = env_of st source in
    let out, dt = Util.time (fun () -> call e env) in
    window := !window +. dt;
    incr calls;
    let record flops = records := { done_at = !window; latency = dt; flops } :: !records in
    match out with
    | None -> record 0.0
    | Some out ->
        let ok =
          if every > 1 && !calls mod every <> 1 then true
          else
            check_reference ck (Printf.sprintf "call %d" !calls) st env out
            && begin
                 match E.run e1 p env with
                 | Ok r1 when checksum r1.Ccc.Exec.output = checksum out -> true
                 | Ok _ ->
                     problem ck "call %d: jobs=1 and jobs=%d outputs differ" !calls i.jobs;
                     false
                 | Error err ->
                     problem ck "call %d: jobs=1 twin: %s" !calls (E.error_to_string err);
                     false
               end
        in
        if ok then record (flops_per_call i st) else (incr failed; record 0.0);
        (match length with Calls _ -> sums := checksum out :: !sums | Seconds _ -> ());
        if i.kind = Seismic_steady then src := out
  done;
  let after = E.stats e in
  let fft_runs = after.E.fft_runs - before.E.fft_runs in
  let expected_fft = if i.kind = Dense_fft then !calls else 0 in
  if fft_runs <> expected_fft then
    problem ck "engine.fft_runs = %d over %d calls, expected %d" fft_runs !calls expected_fft;
  E.shutdown e;
  E.shutdown e1;
  {
    setup_s;
    calls = List.rev !records;
    window_s = !window;
    attempted = !attempted;
    failed = !failed;
    checked = ck.checked;
    problems = List.rev ck.problems;
    checksums = List.rev !sums;
    fft_runs;
    engine = [ after ];
    serve = [];
    coalesced_ratio = 0.0;
    lanes =
      (match obs with
      | Some o -> [ Ccc.Trace.lane ~tid:1 ~label:"engine" o.Ccc.Obs.trace ]
      | None -> []);
  }

(* ------------------------------------------------------------------ *)
(* serve-mix: four tenants, a closed window of eight requests.         *)

let tenants = 4
let window = 8 (* outstanding requests: two per tenant *)
(* Shares of the request stream: a repeat of an in-flight (stencil,
   env) pair, which the scheduler can coalesce; a different stencil
   over an in-flight request's env, which it can batch behind one halo
   exchange; the rest carry a fresh source.  No trace or source fixes
   these shares: they are set only so that coalescing and batching
   have work (README.md, "Why these shares"). *)
let repeat_share = 0.25
let batch_share = 0.15

(* How often the generator looks for resolved tickets while none has
   resolved: each finish time is late by at most about this much. *)
let poll_s = 1e-4

(* Sampled serve outputs kept for the reference check after the loop:
   at most this many, spread over the run whatever its throughput. *)
let sample_cap = 32

type pending = {
  idx : int;
  tenant : string;
  ticket : S.ticket;
  t_submit : float;
  st : stencil;
  env : Ccc.Reference.env;
}

let run_serve ~traced ~length i =
  let ck = checker () in
  let attempted = ref 0 and failed = ref 0 in
  let submit s ~tenant st env =
    incr attempted;
    S.submit s (Ccc.Request.v ~tenant ~env (Ccc.Request.Text st.text))
  in
  let output_of what (r : S.response) =
    match r.S.outcome with
    | Ccc.Outcome.Completed { result; _ } -> Some result.Ccc.Exec.output
    | o ->
        incr failed;
        problem ck "%s: %s" what (Ccc.Outcome.to_string o);
        None
  in
  (* cold set-up: a fresh service until each of the ten distinct
     stencils returned one result *)
  let setup () =
    let obs = obs_for traced in
    let envs = Array.map (fun st -> env_of st i.first_source) i.stencils in
    let t0 = Util.now_s () in
    let s = S.create ?obs ~shards:2 ~clock:Util.now_us config in
    let tickets = Array.mapi (fun k st -> submit s ~tenant:"setup" st envs.(k)) i.stencils in
    let resps = Array.map (S.wait s) tickets in
    let dt = Util.now_s () -. t0 in
    (s, dt, List.init (Array.length resps) (fun k ->
         (i.stencils.(k), envs.(k), output_of "set-up" resps.(k))))
  in
  let s, setup_s = cold_setup ck failed setup in
  let nst = Array.length i.stencils in
  (* the request stream: request [idx] is a pure function of the seed
     and [idx], whatever the completion order *)
  let recent = Array.make window None in
  let next idx =
    let u = Random.State.float i.rng 1.0 in
    let in_flight () =
      let back = 1 + Random.State.int i.rng (min (window - 1) idx) in
      Option.get recent.((idx - back) mod window)
    in
    let st, env =
      if idx > 0 && u < repeat_share then in_flight ()
      else if idx > 0 && u < repeat_share +. batch_share then
        let _, env = in_flight () in
        (i.stencils.(Random.State.int i.rng nst), env)
      else
        let st = i.stencils.(Random.State.int i.rng nst) in
        (st, env_of st (random_grid i.rng i.n (-1.0) 1.0))
    in
    recent.(idx mod window) <- Some (st, env);
    (st, env)
  in
  let outstanding = ref [] in
  let submitted = ref 0 in
  let push tenant =
    let idx = !submitted in
    let st, env = next idx in
    let t_submit = Util.now_s () in
    let ticket = submit s ~tenant st env in
    outstanding := { idx; tenant; ticket; t_submit; st; env } :: !outstanding;
    incr submitted
  in
  (* The reference check keeps every [stride]-th request, and doubles
     [stride] (thinning what it kept) whenever more than [sample_cap]
     are held, so the memory it holds does not grow with throughput. *)
  let stride = ref (match length with Calls _ -> 1 | Seconds _ -> 8) in
  let to_check = ref [] and held = ref 0 in
  let keep pd out =
    if pd.idx mod !stride = 0 then begin
      to_check := (pd, out) :: !to_check;
      incr held;
      if !held > sample_cap then begin
        stride := 2 * !stride;
        to_check := List.filter (fun (pd, _) -> pd.idx mod !stride = 0) !to_check;
        held := List.length !to_check
      end
    end
  in
  let records = ref [] and samples = ref [] and sums = ref [] in
  let t_start = Util.now_s () in
  let t_last = ref t_start in
  while !submitted < window && keep_going length ~calls:!submitted ~elapsed:0.0 do
    push (Printf.sprintf "tenant%d" (!submitted mod tenants))
  done;
  (* Each request is timed when its own ticket resolves, in whatever
     order the shards finish them, and its tenant's next request goes
     out at once. *)
  let finish pd (r : S.response) t_done =
    t_last := t_done;
    samples :=
      {
        queued_us = r.S.queued_us;
        service_us = r.S.service_us;
        batched = r.S.batched;
        caller_us = 1e6 *. (t_done -. pd.t_submit);
      }
      :: !samples;
    let flops =
      match output_of (Printf.sprintf "request %d" pd.idx) r with
      | Some out ->
          keep pd out;
          (match length with Calls _ -> sums := (pd.idx, checksum out) :: !sums | Seconds _ -> ());
          flops_per_call i pd.st
      | None -> 0.0
    in
    records :=
      (pd.idx, { done_at = t_done -. t_start; latency = t_done -. pd.t_submit; flops })
      :: !records;
    if keep_going length ~calls:!submitted ~elapsed:(t_done -. t_start) then push pd.tenant
  in
  while !outstanding <> [] do
    let resolved, waiting =
      List.partition_map
        (fun pd -> match S.peek s pd.ticket with Some r -> Either.Left (pd, r) | None -> Either.Right pd)
        !outstanding
    in
    if resolved = [] then Unix.sleepf poll_s
    else begin
      let t_done = Util.now_s () in
      outstanding := waiting;
      List.iter (fun (pd, r) -> finish pd r t_done) resolved
    end
  done;
  S.shutdown s;
  let wrong =
    List.filter_map
      (fun (pd, out) ->
        if check_reference ck (Printf.sprintf "request %d" pd.idx) pd.st pd.env out then None
        else (incr failed; Some pd.idx))
      !to_check
  in
  let stats = S.stats s in
  let by_idx l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  {
    setup_s;
    calls =
      List.rev_map
        (fun (idx, c) -> if List.mem idx wrong then { c with flops = 0.0 } else c)
        !records;
    window_s = !t_last -. t_start;
    attempted = !attempted;
    failed = !failed;
    checked = ck.checked;
    problems = List.rev ck.problems;
    checksums = List.map snd (by_idx !sums);
    fft_runs = List.fold_left (fun a (_, es) -> a + es.E.fft_runs) 0 stats.S.engines;
    engine = List.map snd stats.S.engines;
    serve = List.rev !samples;
    coalesced_ratio =
      float_of_int stats.S.coalesced /. float_of_int (max 1 stats.S.admitted);
    lanes = (if traced then S.trace_lanes s else []);
  }

(* One cold set-up, then the measured loop. *)
let run ?(traced = false) ~length i =
  match i.kind with
  | Seismic_steady | Dense_fft -> run_engine ~traced ~length i
  | Serve_mix -> run_serve ~traced ~length i
