(* Same seed, same counts.  Each workload runs twice for a fixed number
   of calls with one seed; the two runs must agree on every count the
   program computes without consulting a clock — the cost model's
   cycles and modelled rate, the pool's items per call, the transform
   path's run count — and on the checksum of every output.

   Not compared, because they depend on real scheduling or on time:
   every host timing (the *_ms, *_us and *_s metrics, pool.speedup,
   obs.overhead_pct, exec.unattributed_frac, cost.host_ns_per_cycle),
   and on serve-mix the coalescing and batching outcomes
   (serve.coalesced_ratio, serve.batched_mean) and the plan-cache and
   arena ratios they feed (engine.cache_hit_ratio,
   engine.arena_reuse_ratio): whether a repeated request meets its
   twin in one dispatch window depends on when the shards wake. *)

module W = Perfbench.Workloads
module L = Perfbench.Layers

let seed = 7

let calls = function W.Seismic_steady -> 6 | W.Dense_fft -> 3 | W.Serve_mix -> 24

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let once name kind =
  let r = W.run ~length:(W.Calls (calls kind)) (W.inputs ~seed kind) in
  if r.W.problems <> [] || r.W.failed <> 0 then
    fail "%s: %d failed: %s" name r.W.failed (String.concat "; " r.W.problems);
  if List.length r.W.checksums <> calls kind then
    fail "%s: %d checksums for %d calls" name (List.length r.W.checksums) (calls kind);
  (r.W.checksums, r.W.fft_runs, L.counts (W.inputs ~seed kind))

let () =
  List.iter
    (fun (name, kind) ->
      let sums1, fft1, c1 = once name kind in
      let sums2, fft2, c2 = once name kind in
      if sums1 <> sums2 then fail "%s: output checksums differ between runs" name;
      if fft1 <> fft2 then fail "%s: engine.fft_runs %d vs %d" name fft1 fft2;
      let same label a b = if a <> b then fail "%s: %s %g vs %g" name label a b in
      same "cost.compute_cycles" c1.L.compute_cycles c2.L.compute_cycles;
      same "cost.comm_cycles" c1.L.comm_cycles c2.L.comm_cycles;
      same "cost.model_gflops" c1.L.model_gflops c2.L.model_gflops;
      same "pool.items" c1.L.pool_items c2.L.pool_items;
      Printf.printf "%s: %d outputs, fft runs %d, %.0f compute cycles, %.1f pool items: identical\n"
        name (List.length sums1) fft1 c1.L.compute_cycles c1.L.pool_items)
    W.kinds
