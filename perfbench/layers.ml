(* The traced run: per-layer host time next to the model's cycle
   counts.  Layers with a public entry point (Dist, Halo, Fft, Compile,
   Kernel, Guard, Engine.recognize_statement) are timed by calling it
   directly on the workload's shapes; phases without one (the
   coefficient-stream refill, the compiled compute loop) are read from
   the [run.*] spans Exec records when given an enabled Obs.t. *)

module W = Workloads
module E = Ccc.Engine
module P = Ccc.Pattern
module Tr = Ccc.Trace

let config = W.config

(* Share of the [run] span its children may leave unexplained before
   the attribution counts as incomplete. *)
let attribution_slack = 0.05

(* Run [f] once to warm it, then time it at least [min_reps] times and
   until [budget] seconds are spent or [max_reps] is reached. *)
let sample ?(min_reps = 3) ?(max_reps = 50) ~budget f =
  f ();
  let rec go acc k used =
    if k >= max_reps || (k >= min_reps && used >= budget) then acc
    else
      let (), dt = Util.time f in
      go (dt :: acc) (k + 1) (used +. dt)
  in
  go [] 0 0.0

(* ------------------------------------------------------------------ *)
(* Counts that repeat exactly: the cost model's cycles per call and   *)
(* the pool's items per call, on a warm engine with the workload's     *)
(* settings.                                                           *)

type counts = {
  compute_cycles : float;
  comm_cycles : float;
  model_gflops : float;
  pool_items : float;
}

let counts (i : W.inputs) =
  let e = E.create ~settings:(W.settings i) config in
  let cases = W.layer_cases i in
  let per_case =
    List.map
      (fun (st : W.stencil) ->
        let env = W.env_of st i.W.first_source in
        ignore (E.run e st.W.pattern env);
        let items0 = Ccc.Pool.chunks_run (E.pool e) in
        match E.run e st.W.pattern env with
        | Ok r ->
            let s = r.Ccc.Exec.stats in
            ( float_of_int s.Ccc.Stats.compute_cycles,
              float_of_int s.Ccc.Stats.comm_cycles,
              Ccc.Stats.gflops s,
              float_of_int (Ccc.Pool.chunks_run (E.pool e) - items0) )
        | Error err -> failwith ("counts: " ^ E.error_to_string err))
      cases
  in
  E.shutdown e;
  let avg f = Util.mean (List.map f per_case) in
  {
    compute_cycles = avg (fun (c, _, _, _) -> c);
    comm_cycles = avg (fun (_, c, _, _) -> c);
    model_gflops = avg (fun (_, _, g, _) -> g);
    pool_items = avg (fun (_, _, _, n) -> n);
  }

(* ------------------------------------------------------------------ *)
(* Direct layer timings for one stencil: (name, median, samples).      *)

let case_layers (i : W.inputs) (st : W.stencil) problems =
  let p = st.W.pattern and n = i.W.n in
  let env = W.env_of st i.W.first_source in
  let pool = Ccc.Pool.create ~jobs:i.W.jobs in
  let out = ref [] in
  let add ?(scale = 1e3) name samples =
    out := (name, scale *. Util.median samples, List.length samples) :: !out
  in
  let bypassed name = out := (name, 0.0, 0) :: !out in
  add ~scale:1e6 "frontend.recognize_us"
    (sample ~max_reps:200 ~budget:0.05 (fun () -> ignore (E.recognize_statement st.W.text)));
  let compiled = Ccc.Compile.compile config p in
  add "compiler.compile_ms" (sample ~budget:0.3 (fun () -> ignore (Ccc.Compile.compile config p)));
  (match compiled with
  | Ok c -> add "kernel.build_ms" (sample ~budget:0.3 (fun () -> ignore (Ccc.Kernel.build config c)))
  | Error _ -> bypassed "kernel.build_ms");
  (match Ccc.Fft.build p ~rows:n ~cols:n env with
  | plan ->
      add "fft.build_ms" (sample ~budget:0.3 (fun () -> ignore (Ccc.Fft.build p ~rows:n ~cols:n env)));
      let side = n + (2 * P.max_border p) in
      let padded = Ccc.Grid.init ~rows:side ~cols:side (fun r c -> sin (float_of_int ((r * 7) + c))) in
      add "fft.execute_ms" (sample ~budget:0.3 (fun () -> ignore (Ccc.Fft.execute ~pool plan ~padded)))
  | exception Ccc.Fft.Varying _ ->
      bypassed "fft.build_ms";
      bypassed "fft.execute_ms");
  let machine = Ccc.machine config in
  let d =
    Ccc.Dist.create machine ~sub_rows:(n / config.Ccc.Config.node_rows)
      ~sub_cols:(n / config.Ccc.Config.node_cols)
  in
  let src = i.W.first_source in
  add "dist.scatter_ms" (sample ~budget:0.1 (fun () -> Ccc.Dist.scatter_into ~pool d src));
  add "dist.gather_ms" (sample ~budget:0.1 (fun () -> ignore (Ccc.Dist.gather ~pool d)));
  let pad = P.max_border p and boundary = P.boundary p and needs_corners = P.needs_corners p in
  let h = Ccc.Halo.exchange ~pool ~source:d ~pad ~boundary ~needs_corners () in
  add "halo.exchange_ms"
    (sample ~budget:0.1 (fun () ->
         ignore
           (Ccc.Halo.exchange_into ~pool ~padded:h.Ccc.Halo.padded ~source:d ~pad ~boundary
              ~needs_corners ())));
  let findings = ref [] in
  add "guard.check_halo_ms"
    (sample ~budget:0.1 (fun () ->
         findings := Ccc.Guard.check_halo ~source:d ~halo:h ~boundary ~needs_corners));
  if !findings <> [] then problems := "guard.check_halo: findings on a clean exchange" :: !problems;
  (* engines at jobs 1 and 2; the workload's own setting is one of them *)
  let e1 = E.create ~settings:{ (W.settings i) with jobs = 1 } config in
  let e2 = E.create ~settings:{ (W.settings i) with jobs = 2 } config in
  let e = if i.W.jobs = 1 then e1 else e2 in
  let output =
    match E.run e p env with
    | Ok r -> r.Ccc.Exec.output
    | Error err -> failwith ("layers: " ^ E.error_to_string err)
  in
  add "guard.check_output_ms"
    (sample ~budget:0.3 (fun () -> findings := Ccc.Guard.check_output p env output));
  if !findings <> [] then problems := "guard.check_output: findings on a clean run" :: !problems;
  add "engine.run_ms" (sample ~budget:0.3 (fun () -> ignore (E.run e p env)));
  add "engine.guarded_ms"
    (sample ~budget:0.3 (fun () ->
         match E.run_guarded e p env with
         | Ok (E.Completed _) -> ()
         | Ok (E.Degraded _) | Error _ -> problems := "engine.run_guarded: not completed" :: !problems));
  (* jobs 1 against jobs 2, interleaved so drift hits both sides *)
  ignore (E.run e1 p env);
  let t1 = ref [] and t2 = ref [] in
  let deadline = Util.now_s () +. 0.4 in
  while List.length !t1 < 5 || (Util.now_s () < deadline && List.length !t1 < 50) do
    t1 := snd (Util.time (fun () -> ignore (E.run e1 p env))) :: !t1;
    t2 := snd (Util.time (fun () -> ignore (E.run e2 p env))) :: !t2
  done;
  out := ("pool.speedup", Util.median !t1 /. Util.median !t2, List.length !t1) :: !out;
  E.shutdown e1;
  E.shutdown e2;
  Ccc.Pool.shutdown pool;
  Gc.full_major ();
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Spans.                                                              *)

let rec iter_spans f s =
  f s;
  List.iter (iter_spans f) (Tr.span_children s)

let all_spans lanes =
  let acc = ref [] in
  List.iter (fun l -> List.iter (iter_spans (fun s -> acc := s :: !acc)) (Tr.lane_roots l)) lanes;
  !acc

let child_dur s name =
  List.fold_left
    (fun a c -> if Tr.span_name c = name then a +. Tr.span_dur c else a)
    0.0 (Tr.span_children s)

let self_us s =
  Tr.span_dur s -. List.fold_left (fun a c -> a +. Tr.span_dur c) 0.0 (Tr.span_children s)

(* Self time per span name: (name, spans, total self microseconds). *)
let self_times spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let name = Tr.span_name s in
      let k, t = Option.value (Hashtbl.find_opt tbl name) ~default:(0, 0.0) in
      Hashtbl.replace tbl name (k + 1, t +. self_us s))
    spans;
  List.sort compare (Hashtbl.fold (fun name (k, t) acc -> (name, k, t) :: acc) tbl [])

(* ------------------------------------------------------------------ *)
(* The whole traced run.                                               *)

type report = {
  metrics : Util.metric list;
  self : (string * int * float) list;
  unattributed : float;
  attribution_complete : bool;
  chrome : string;
  attempted : int;
  failed : int;
  problems : string list;
}

let segments = 8

let latency_p50 (r : W.result) = Util.median (List.map (fun c -> c.W.latency) r.W.calls)

let measure ~seed ~seconds kind =
  let i = W.inputs ~seed kind in
  (* Untraced and traced segments alternate, and obs.overhead_pct is
     the median over adjacent pairs, so host drift lands on both sides
     of each comparison. *)
  let length = W.Seconds (seconds /. float_of_int (3 * segments)) in
  let pairs =
    List.init segments (fun _ ->
        let plain = W.run ~length (W.inputs ~seed kind) in
        let traced = W.run ~traced:true ~length (W.inputs ~seed kind) in
        (* release the segments' machines before the next pair *)
        Gc.full_major ();
        (plain, traced))
  in
  let plains = List.map fst pairs and traceds = List.map snd pairs in
  let results = plains @ traceds in
  let gather f (l : W.result list) = List.concat_map f l in
  let problems = ref (gather (fun (r : W.result) -> r.W.problems) results) in
  let lanes = gather (fun r -> r.W.lanes) traceds in
  let spans = all_spans lanes in
  let runs = List.filter (fun s -> Tr.span_name s = "run") spans in
  let per_run name = List.map (fun s -> child_dur s name /. 1e3) runs in
  let sum f l = List.fold_left (fun a s -> a +. f s) 0.0 l in
  let unattributed = sum self_us runs /. sum Tr.span_dur runs in
  if runs = [] then problems := "traced run recorded no run spans" :: !problems;
  let c = counts i in
  let direct = List.map (fun st -> case_layers i st problems) (W.layer_cases i) in
  let direct_metric name =
    let vals = List.map (fun l -> List.find (fun (n, _, _) -> n = name) l) direct in
    let unit_ = if name = "pool.speedup" then "x" else if name = "frontend.recognize_us" then "us" else "ms" in
    Util.metric name unit_
      ~samples:(List.fold_left (fun a (_, _, k) -> a + k) 0 vals)
      (Util.mean (List.map (fun (_, v, _) -> v) vals))
  in
  let engines = gather (fun r -> r.W.engine) plains in
  let esum f = float_of_int (List.fold_left (fun a s -> a + f s) 0 engines) in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let serve = gather (fun r -> r.W.serve) plains in
  let nserve = List.length serve in
  let served f = List.map f serve in
  let compute_ms = Util.median (per_run "run.compute") in
  let m = Util.metric in
  let metrics =
    List.map direct_metric
      [
        "frontend.recognize_us"; "compiler.compile_ms"; "kernel.build_ms"; "fft.build_ms";
        "fft.execute_ms"; "dist.scatter_ms"; "dist.gather_ms"; "halo.exchange_ms";
      ]
    @ [
        m "exec.streams_ms" "ms" ~samples:(List.length runs) (Util.median (per_run "run.streams"));
        m "exec.compute_ms" "ms" ~samples:(List.length runs) compute_ms;
        m "exec.unattributed_frac" "ratio" ~samples:(List.length runs) unattributed;
        direct_metric "pool.speedup";
        m "pool.items" "count" c.pool_items;
      ]
    @ List.map direct_metric
        [ "guard.check_output_ms"; "guard.check_halo_ms"; "engine.run_ms"; "engine.guarded_ms" ]
    @ [
        m "engine.cache_hit_ratio" "ratio"
          (ratio (esum (fun s -> s.E.hits)) (esum (fun s -> s.E.hits + s.E.misses)));
        m "engine.arena_reuse_ratio" "ratio"
          (ratio (esum (fun s -> s.E.arena_reuses))
             (esum (fun s -> s.E.arena_reuses + s.E.arena_rebuilds)));
        m "engine.fft_runs" "count" (float_of_int (List.fold_left (fun a r -> a + r.W.fft_runs) 0 plains));
        m "serve.queued_ms_p50" "ms" ~samples:nserve
          (if nserve = 0 then 0.0 else Util.median (served (fun r -> r.W.queued_us /. 1e3)));
        m "serve.service_ms_p50" "ms" ~samples:nserve
          (if nserve = 0 then 0.0 else Util.median (served (fun r -> r.W.service_us /. 1e3)));
        m "serve.coalesced_ratio" "ratio" (Util.mean (List.map (fun r -> r.W.coalesced_ratio) plains));
        m "serve.batched_mean" "count" ~samples:nserve
          (if nserve = 0 then 0.0 else Util.mean (served (fun r -> float_of_int r.W.batched)));
        m "cost.compute_cycles" "cycles" c.compute_cycles;
        m "cost.comm_cycles" "cycles" c.comm_cycles;
        m "cost.model_gflops" "GFLOP/s" c.model_gflops;
        m "cost.host_ns_per_cycle" "ns" ~samples:(List.length runs)
          (ratio (compute_ms *. 1e6) c.compute_cycles);
        m "obs.overhead_pct" "%" ~samples:segments
          (100.0
          *. Util.median
               (List.map
                  (fun (plain, traced) -> (latency_p50 traced /. latency_p50 plain) -. 1.0)
                  pairs));
      ]
  in
  {
    metrics;
    self = self_times spans;
    unattributed;
    attribution_complete = runs <> [] && unattributed <= attribution_slack;
    chrome = Tr.to_chrome_json_lanes lanes;
    attempted = List.fold_left (fun a r -> a + r.W.attempted) 0 results;
    failed = List.fold_left (fun a r -> a + r.W.failed) 0 results;
    problems = List.rev !problems;
  }
