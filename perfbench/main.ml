(* The benchmark command: one workload per process (peak RSS is the
   process's own), a human-readable report, a provenance file, and as
   the last line of standard output one JSON object with the keys
   correct, attempted, failed and metrics.  See README.md. *)

module W = Perfbench.Workloads
module L = Perfbench.Layers
module U = Perfbench.Util

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let commit = ref "unknown"
let out_dir = ref "perfbench/out"
let setup_only = ref false

(* setup_s is the median over cold set-ups: this process's own and
   [child_setups] more, each in a fresh child process, so that every
   sample pays what a new process pays (fresh pages for the machine's
   node memories, cold caches) rather than reusing memory a previous
   engine released.  Half of the children run before the measured
   loop and half after it, so the samples span the run and a shift in
   the host's speed during it moves their median less. *)
let child_setups = 8

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME seismic-steady | dense-fft | serve-mix");
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--seconds", Arg.Set_float seconds, "S measured seconds");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
    ("--commit", Arg.Set_string commit, "SHA commit recorded in the provenance file");
    ("--out", Arg.Set_string out_dir, "DIR directory for the provenance and trace files");
    ("--setup-only", Arg.Set setup_only, " time one cold set-up and print it (used internally)");
  ]

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

(* One cold set-up in a fresh process: (seconds, attempted, failed,
   problems). *)
let child_setup () =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--setup-only"; "--workload"; !workload; "--seed";
         string_of_int !seed |]
  in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  let status = Unix.close_process_in ic in
  let result =
    List.find_map
      (fun l -> try Some (Scanf.sscanf l "setup %f %d %d" (fun s a f -> (s, a, f))) with _ -> None)
      lines
  in
  match (status, result) with
  | Unix.WEXITED 0, Some (s, a, f) ->
      (s, a, f, List.filter (fun l -> String.length l > 0 && not (String.starts_with ~prefix:"setup " l)) lines)
  | _ -> (nan, 1, 1, [ "set-up child process failed" ])

(* On serve-mix, the shares of the measured requests that the
   scheduler coalesced with a twin and that rode a batch of more than
   one statement, so a change in requests_per_s can be traced to them;
   and the median of the caller's latency less the scheduler's queued
   and service time, the part of latency_p50_ms spent outside them. *)
let serve_shares (r : W.result) =
  match r.W.serve with
  | [] -> []
  | samples ->
      let batched = List.filter (fun s -> s.W.batched > 1) samples in
      [
        ("serve_coalesced_frac", U.json_float r.W.coalesced_ratio);
        ( "serve_batched_frac",
          U.json_float (float_of_int (List.length batched) /. float_of_int (List.length samples)) );
        ( "serve_outside_ms_p50",
          U.json_float
            (U.median (List.map (fun s -> (s.W.caller_us -. s.W.queued_us -. s.W.service_us) /. 1e3) samples)) );
      ]

let end_to_end (i : W.inputs) (r : W.result) setups =
  let latencies = List.map (fun c -> c.W.latency) r.W.calls in
  let flops = List.fold_left (fun a c -> a +. c.W.flops) 0.0 r.W.calls in
  let tail_label, q = W.tail_percentile i in
  let tail_value, tail_beyond = U.tail q latencies in
  if tail_beyond < 10 then
    Printf.printf "warning: only %d samples beyond %s\n" tail_beyond tail_label;
  let calls = List.length latencies in
  let m = U.metric in
  ( [
      m "setup_s" "s" ~samples:(List.length setups) (U.median setups);
      m "latency_p50_ms" "ms" ~samples:calls (1e3 *. U.median latencies);
      m "latency_tail_ms" "ms" ~samples:calls (1e3 *. tail_value);
      m "requests_per_s" "1/s" ~samples:calls (float_of_int calls /. r.W.window_s);
      m "host_gflops" "GFLOP/s" ~samples:calls (flops /. r.W.window_s /. 1e9);
      m "ok_frac" "ratio" ~samples:r.W.attempted
        (1.0 -. (float_of_int r.W.failed /. float_of_int (max 1 r.W.attempted)));
      m "peak_rss_mb" "MiB" (U.peak_rss_mb ());
    ],
    [
      ("tail_percentile", U.json_string tail_label);
      ("tail_samples_beyond", string_of_int tail_beyond);
      ("grid", U.json_string (Printf.sprintf "%dx%d" i.W.n i.W.n));
      ("jobs", string_of_int i.W.jobs);
      ("outputs_checked", string_of_int r.W.checked);
      ("setup_samples_s", "[" ^ String.concat ", " (List.map U.json_float setups) ^ "]");
    ]
    @ serve_shares r )

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let kind =
    match W.kind_of_string !workload with
    | Some k -> k
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then (prerr_endline usage; exit 2);
  if !setup_only then begin
    let r = W.run ~length:(W.Calls 0) (W.inputs ~seed:!seed kind) in
    List.iter print_endline r.W.problems;
    Printf.printf "setup %.9f %d %d\n" r.W.setup_s r.W.attempted r.W.failed;
    exit 0
  end;
  let base = Printf.sprintf "%s-seed%d-trace%d" !workload !seed !trace in
  mkdir_p !out_dir;
  let metrics, extra, attempted, failed, problems =
    if !trace = 0 then begin
      let before = List.init (child_setups / 2) (fun _ -> child_setup ()) in
      let i = W.inputs ~seed:!seed kind in
      let r = W.run ~length:(W.Seconds !seconds) i in
      let children = before @ List.init (child_setups - (child_setups / 2)) (fun _ -> child_setup ()) in
      let setups = r.W.setup_s :: List.map (fun (s, _, _, _) -> s) children in
      let metrics, extra = end_to_end i r setups in
      write_file (Filename.concat !out_dir (base ^ ".calls.csv"))
        ("done_at_s,latency_s,flops\n"
        ^ String.concat ""
            (List.map
               (fun c -> Printf.sprintf "%.9f,%.9f,%.0f\n" c.W.done_at c.W.latency c.W.flops)
               r.W.calls));
      let sum f = List.fold_left (fun a c -> a + f c) 0 children in
      ( metrics,
        extra,
        r.W.attempted + sum (fun (_, a, _, _) -> a),
        r.W.failed + sum (fun (_, _, f, _) -> f),
        r.W.problems @ List.concat_map (fun (_, _, _, p) -> p) children )
    end
    else begin
      let rep = L.measure ~seed:!seed ~seconds:!seconds kind in
      let trace_file = Filename.concat !out_dir (base ^ ".trace.json") in
      write_file trace_file rep.L.chrome;
      List.iter
        (fun (name, k, us) ->
          Printf.printf "self %-22s %6d spans %12.3f ms total\n" name k (us /. 1e3))
        rep.L.self;
      Printf.printf "attribution: %.2f%% of the run span outside its children (slack %.0f%%): %s\n"
        (100.0 *. rep.L.unattributed) (100.0 *. L.attribution_slack)
        (if rep.L.attribution_complete then "complete" else "INCOMPLETE");
      ( rep.L.metrics,
        [
          ("chrome_trace", U.json_string trace_file);
          ("unattributed_frac", U.json_float rep.L.unattributed);
          ("attribution_slack", U.json_float L.attribution_slack);
          ("attribution_complete", string_of_bool rep.L.attribution_complete);
          ("peak_rss_mb", U.json_float (U.peak_rss_mb ()));
          ( "self_time_ms",
            U.json_obj
              (List.map (fun (name, k, us) ->
                   (name, U.json_obj [ ("spans", string_of_int k); ("total_ms", U.json_float (us /. 1e3)) ]))
                 rep.L.self) );
        ],
        rep.L.attempted,
        rep.L.failed,
        rep.L.problems )
    end
  in
  let correct = problems = [] && failed = 0 in
  List.iter (fun p -> Printf.printf "check failed: %s\n" p) problems;
  List.iter
    (fun (m : U.metric) ->
      Printf.printf "%-24s %14.6g %-8s n=%d\n" m.U.name m.U.value m.U.unit_ m.U.samples)
    metrics;
  let provenance =
    U.json_obj
      ([
         ("workload", U.json_string !workload);
         ("seed", string_of_int !seed);
         ("seconds", U.json_float !seconds);
         ("trace", string_of_int !trace);
         ("nproc", string_of_int (Domain.recommended_domain_count ()));
         ("ocaml_version", U.json_string Sys.ocaml_version);
         ("commit", U.json_string !commit);
         ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("problems", "[" ^ String.concat ", " (List.map U.json_string problems) ^ "]");
       ]
      @ extra
      @ [
          ( "metrics",
            "["
            ^ String.concat ", "
                (List.map
                   (fun (m : U.metric) ->
                     U.json_obj
                       [
                         ("name", U.json_string m.U.name);
                         ("value", U.json_float m.U.value);
                         ("unit", U.json_string m.U.unit_);
                         ("samples", string_of_int m.U.samples);
                       ])
                   metrics)
            ^ "]" );
        ])
  in
  write_file (Filename.concat !out_dir (base ^ ".json")) (provenance ^ "\n");
  List.iter (fun (k, v) -> Printf.printf "%s: %s\n" k v)
    [ ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version); ("commit", !commit); ("seed", string_of_int !seed) ];
  List.iter (fun (k, v) -> if k <> "self_time_ms" then Printf.printf "%s: %s\n" k v) extra;
  print_endline
    (U.json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ( "metrics",
           U.json_obj
             (List.map
                (fun (m : U.metric) ->
                  ( m.U.name,
                    U.json_obj [ ("value", U.json_float m.U.value); ("unit", U.json_string m.U.unit_) ] ))
                metrics) );
       ]);
  if not correct then exit 1
