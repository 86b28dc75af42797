open Ccc_stencil
module Machine = Ccc_cm2.Machine
module Memory = Ccc_cm2.Memory
module Config = Ccc_cm2.Config
module Compile = Ccc_compiler.Compile
module Plan = Ccc_microcode.Plan
module Interp = Ccc_microcode.Interp
module Cost = Ccc_microcode.Cost
module Obs = Ccc_obs.Obs
module Tr = Ccc_obs.Trace
module Profiler = Ccc_obs.Profiler
module Access = Ccc_analysis.Access

type mode = Simulate | Fast
type inner = Tapwalk | Lowered
type result = { output : Grid.t; stats : Stats.t }
type batch = { batch_results : result list; batch_stats : Stats.t }

exception Too_small of string

(* The chaos seam: callbacks fired between (and inside) the runtime
   phases, carrying just enough machine state for an injector to reach
   the regions a real fault would corrupt.  Exec itself is
   fault-agnostic — the default hooks do nothing, and the fault layer
   (lib/fault) builds one-shot corrupting closures over this record. *)
type phase_ctx = {
  phase : string;
  machine : Machine.t;
  source : Dist.t option;
  halo : Halo.exchange option;
  dst : Dist.t option;
  streams : Dist.t array;
}

type hooks = {
  on_phase : phase_ctx -> unit;
  on_compute_node : int -> unit;
}

let no_hooks = { on_phase = (fun _ -> ()); on_compute_node = (fun _ -> ()) }

let compose_hooks a b =
  {
    on_phase =
      (fun ctx ->
        a.on_phase ctx;
        b.on_phase ctx);
    on_compute_node =
      (fun node ->
        a.on_compute_node node;
        b.on_compute_node node);
  }

(* ------------------------------------------------------------------ *)
(* Statements and their price on the model. *)

(* One statement of the pipeline: its taps over the exchanged sources
   (a single-source pattern is the one-source case), the compiled plans
   that strip-mine it, descending by width — empty on the transform
   path, which needs none — and an optional pre-verified kernel. *)
type stmt = { multi : Multi.t; plans : Plan.t list; kernel : Kernel.t option }

let stmt_of_compiled ?kernel (c : Compile.t) =
  { multi = Multi.of_pattern c.Compile.pattern; plans = c.Compile.plans; kernel }

let stmt_of_fused (f : Compile.fused) =
  { multi = f.Compile.multi; plans = f.Compile.fused_plans; kernel = None }

let stmt_of_pattern p = { multi = Multi.of_pattern p; plans = []; kernel = None }

(* The coefficient streams of the widest plan, in tap order. *)
let streams_of stmt =
  match stmt.plans with p :: _ -> p.Plan.coeff_streams | [] -> [||]

(* One exchanged source array of a statement set, padded to the widest
   border any statement reads it at; its corner sections are fetched
   (rather than NaN-poisoned) if any statement needs them — sound for
   the others, which never read corners. *)
type source = { name : string; pad : int; corners : bool }

let source_set stmts =
  let first = (List.hd stmts).multi in
  Array.of_list
    (List.mapi
       (fun i name ->
         {
           name;
           pad =
             List.fold_left
               (fun acc s -> max acc (Multi.max_border s.multi i))
               0 stmts;
           corners = List.exists (fun s -> Multi.needs_corners s.multi i) stmts;
         })
       (Multi.sources first))

let skips_corners sources = not (Array.exists (fun s -> s.corners) sources)

let check_fits sources ~sub_rows ~sub_cols =
  Array.iter
    (fun s ->
      if s.pad > sub_rows || s.pad > sub_cols then
        raise
          (Too_small
             (Printf.sprintf
                "border width %d of %s exceeds the %dx%d per-node subgrid"
                s.pad s.name sub_rows sub_cols)))
    sources

(* Per-iteration totals from the analytic model; the simulate path
   asserts agreement with the interpreter.

   The front end prepares each half-strip's dynamic-part parameters
   (one unit of work per word) and dispatches it; preparation overlaps
   the previous half-strip's microcode, so the machine stalls only
   when the front end is slower.  [frontend_s] accumulates exactly the
   stall time plus the per-call launch cost. *)
let analytic_totals (config : Config.t) halfstrips =
  let dispatch = Config.effective_dispatch_s config in
  let word_s = Config.effective_word_s config in
  List.fold_left
    (fun (cycles, madds, stall) (hs : Stripmine.halfstrip) ->
      let lines = Array.length hs.rows in
      let cm_cycles = Cost.halfstrip_cycles config hs.strip.plan ~lines in
      let fe_s =
        dispatch
        +. (float_of_int (Cost.halfstrip_words hs.strip.plan ~lines) *. word_s)
      in
      let cm_s = float_of_int cm_cycles /. config.clock_hz in
      ( cycles + cm_cycles,
        madds + Cost.halfstrip_madds_total config hs.strip.plan ~lines,
        stall +. Float.max 0.0 (fe_s -. cm_s) ))
    (0, 0, 0.0) halfstrips

(* What one statement costs on the model for a per-node subgrid: the
   half-strips its plans walk and their analytic totals, or — on the
   transform path — the closed forms of {!Cost.fft_cycles}, whose
   transposes add to the halo exchange's communication. *)
type price = {
  halfstrips : Stripmine.halfstrip list;
  widths : int list;
  cycles : int;
  madds : int;
  stall_s : float;
  transform_comm : int;
}

let price (config : Config.t) ~transform stmt ~sub_rows ~sub_cols =
  if transform then
    let rows = sub_rows * config.Config.node_rows
    and cols = sub_cols * config.Config.node_cols
    and pad = Multi.max_border stmt.multi 0 in
    {
      halfstrips = [];
      widths = [];
      cycles = Cost.fft_compute_cycles config ~rows ~cols ~pad;
      madds =
        4
        * (Cost.fft_butterflies ~rows ~cols ~pad
          + Cost.fft_pointwise_bins ~rows ~cols ~pad);
      stall_s = 0.0;
      transform_comm = Cost.fft_comm_cycles config ~rows ~cols ~pad;
    }
  else
    let strips = Stripmine.strips_of_plans stmt.plans ~sub_cols in
    let halfstrips =
      List.concat_map (fun s -> Stripmine.halfstrips s ~sub_rows) strips
    in
    let cycles, madds, stall_s = analytic_totals config halfstrips in
    {
      halfstrips;
      widths = List.map (fun (s : Stripmine.strip) -> s.plan.Plan.width) strips;
      cycles;
      madds;
      stall_s;
      transform_comm = 0;
    }

let build_stats (config : Config.t) ~iterations ~comm_cycles ~call_s
    ~compute_cycles ~madds ~frontend_stall_s ~flops_per_point ~global_points
    ~strip_widths ~corners_skipped =
  {
    Stats.iterations;
    comm_cycles;
    compute_cycles;
    frontend_s = call_s +. frontend_stall_s;
    useful_flops_per_iteration = flops_per_point * global_points;
    madds_issued = madds;
    strip_widths;
    corners_skipped;
    nodes = Config.node_count config;
    clock_hz = config.clock_hz;
  }

(* A statement set's statistics.  Each statement's own stats carry only
   its compute and dispatch stalls; communication (every halo exchange
   plus any transform transposes) and the per-call launch are paid once
   for the set and appear in the aggregate alongside the summed
   compute.  For a set of one statement the aggregate is exactly that
   statement's one-shot statistics. *)
let set_stats config ~iterations ~halo_cycles ~global_points priced =
  let each =
    List.map
      (fun (stmt, p) ->
        build_stats config ~iterations:1 ~comm_cycles:0 ~call_s:0.0
          ~compute_cycles:p.cycles ~madds:p.madds ~frontend_stall_s:p.stall_s
          ~flops_per_point:(Multi.useful_flops_per_point stmt.multi)
          ~global_points ~strip_widths:p.widths
          ~corners_skipped:(skips_corners (source_set [ stmt ])))
      priced
  in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 in
  let total =
    build_stats config ~iterations
      ~comm_cycles:(halo_cycles + sum (fun (_, p) -> p.transform_comm) priced)
      ~call_s:(Config.effective_call_s config)
      ~compute_cycles:(sum (fun s -> s.Stats.compute_cycles) each)
      ~madds:(sum (fun s -> s.Stats.madds_issued) each)
      ~frontend_stall_s:
        (List.fold_left (fun acc s -> acc +. s.Stats.frontend_s) 0.0 each)
      ~flops_per_point:
        (sum (fun (stmt, _) -> Multi.useful_flops_per_point stmt.multi) priced)
      ~global_points
      ~strip_widths:(List.concat_map (fun s -> s.Stats.strip_widths) each)
      ~corners_skipped:(List.for_all (fun s -> s.Stats.corners_skipped) each)
  in
  (each, total)

(* ------------------------------------------------------------------ *)
(* Placement: the standing regions a run executes in. *)

module Arena = struct
  type slot = {
    profile : int * int * int array * int;
        (* sub_rows, sub_cols, per-source pad, stream count *)
    srcs : Dist.t array;
    streams : Dist.t array;
    dst : Dist.t;
    halos : Memory.region array;
  }

  type t = {
    machine : Machine.t;
    floor : Memory.region;
    mutable slot : slot option;
    mutable reuses : int;
    mutable rebuilds : int;
  }

  let create machine =
    {
      machine;
      floor = Machine.alloc_all machine ~words:0;
      slot = None;
      reuses = 0;
      rebuilds = 0;
    }

  let machine t = t.machine
  let reuses t = t.reuses
  let rebuilds t = t.rebuilds

  (* The node memories are bump allocators, so the arena keeps exactly
     one standing shape profile: a request for the same profile reuses
     every region in place, and any other profile frees back to the
     floor watermark and rebuilds.  Callers rewrite every word of every
     region before reading (scatter_into / fill / exchange_into), so
     reuse cannot observe a previous call's data. *)
  let acquire t ~sub_rows ~sub_cols ~pads ~nstreams =
    let profile = (sub_rows, sub_cols, pads, nstreams) in
    match t.slot with
    | Some slot when slot.profile = profile ->
        t.reuses <- t.reuses + 1;
        slot
    | _ ->
        Machine.free_all_after t.machine t.floor;
        let dist () = Dist.create t.machine ~sub_rows ~sub_cols in
        let srcs = Array.map (fun _ -> dist ()) pads in
        let streams = Array.init nstreams (fun _ -> dist ()) in
        let dst = dist () in
        let halos =
          Array.map
            (fun pad ->
              Machine.alloc_all t.machine
                ~words:((sub_rows + (2 * pad)) * (sub_cols + (2 * pad))))
            pads
        in
        let slot = { profile; srcs; streams; dst; halos } in
        t.slot <- Some slot;
        t.rebuilds <- t.rebuilds + 1;
        slot

  let reset t =
    Machine.free_all_after t.machine t.floor;
    t.slot <- None
end

(* A transient placement is an arena over the machine's current
   allocation top, released on the way out — the faithful rendering of
   one Fortran statement; a standing placement is the engine's arena,
   kept between requests. *)
type placement = Transient of Machine.t | Standing of Arena.t

let with_arena placement f =
  match placement with
  | Standing arena -> f arena
  | Transient machine ->
      let arena = Arena.create machine in
      Fun.protect ~finally:(fun () -> Arena.reset arena) (fun () -> f arena)

let subgrid_shape (config : Config.t) ~who grid =
  let grows = Grid.rows grid and gcols = Grid.cols grid in
  let nrows = config.Config.node_rows and ncols = config.Config.node_cols in
  if grows mod nrows <> 0 || gcols mod ncols <> 0 then
    invalid_arg
      (Printf.sprintf
         "%s: %dx%d array does not divide over a %dx%d node grid" who grows
         gcols nrows ncols);
  (grows / nrows, gcols / ncols)

(* ------------------------------------------------------------------ *)
(* The compute backends. *)

(* Write every coefficient stream of a statement into its region: an
   array is scattered, a scalar (or the implicit one) broadcast. *)
let fill_streams ~pool env (dists : Dist.t array) spec =
  Array.iteri
    (fun i coeff ->
      match coeff with
      | Coeff.Array name ->
          Dist.scatter_into ~pool dists.(i) (Reference.lookup env name)
      | Coeff.Scalar v -> Dist.fill ~pool dists.(i) v
      | Coeff.One -> Dist.fill ~pool dists.(i) 1.0)
    spec

(* The bounds-checked tapwalk over one node's bindings: every operand
   address is re-derived from the tap list per element, reading exactly
   the positions the microcode would. *)
let tapwalk multi ~sub_rows (b : Interp.bindings) =
  let mem = b.Interp.memory and cols = b.Interp.dst_cols in
  let at (region : Memory.region) r c = region.Memory.base + (r * cols) + c in
  let taps = Multi.taps multi in
  let ntaps = List.length taps in
  for r = 0 to sub_rows - 1 do
    for c = 0 to cols - 1 do
      let sum = ref 0.0 in
      List.iteri
        (fun i (st : Multi.source_tap) ->
          let { Offset.drow; dcol } = st.Multi.tap.Tap.offset in
          let { Interp.padded; padded_cols; pad } =
            b.Interp.sources.(st.Multi.source)
          in
          let v =
            Memory.read mem
              (padded.Memory.base + ((r + drow + pad) * padded_cols) + c + dcol
             + pad)
          in
          sum := !sum +. (Memory.read mem (at b.Interp.coeffs.(i) r c) *. v))
        taps;
      if Multi.bias multi <> None then
        sum := !sum +. Memory.read mem (at b.Interp.coeffs.(ntaps) r c);
      Memory.write mem (at b.Interp.dst r c) !sum
    done
  done

(* The transform backend's compute: assemble the global padded frame
   from the exchanged node temporaries, convolve it through the plan,
   and distribute the result.  Each node owns its subgrid's cells plus,
   on the machine's edge, the adjoining frame cells — which its own
   halo holds with boundary semantics already applied (wraparound
   values or the end-off fill), so halo faults propagate into the
   transform input exactly as they would into the microcode's reads.
   When corner sections were skipped, the frame's corner blocks are
   zeroed rather than read: with no diagonal taps their coefficients
   are zero (including under the transform's mod-P aliasing — a corner
   cell can only reach an output point at a doubly-negative offset), so
   zeros are exact where the exchanged NaN poison would destroy the
   whole spectrum. *)
let transform_compute ~pool ~per_node machine fplan ~(halo : Halo.exchange)
    ~(dst : Dist.t) =
  let sub_rows = dst.Dist.sub_rows and sub_cols = dst.Dist.sub_cols in
  let rows = Dist.global_rows dst and cols = Dist.global_cols dst in
  let pad = halo.Halo.pad and needs_corners = not halo.Halo.corners_skipped in
  let frame_cols = cols + (2 * pad) in
  let frame = Grid.create ~rows:(rows + (2 * pad)) ~cols:frame_cols in
  let fraw = Grid.raw frame in
  let base = halo.Halo.padded.Memory.base in
  let hpcols = halo.Halo.padded_cols in
  let geometry = Machine.geometry machine in
  let grows = Ccc_cm2.Geometry.rows geometry in
  let gcols = Ccc_cm2.Geometry.cols geometry in
  per_node (fun node mem ->
      let node_r, node_c = Ccc_cm2.Geometry.coord_of_node geometry node in
      let r_lo = if node_r = 0 then -pad else node_r * sub_rows in
      let r_hi =
        if node_r = grows - 1 then rows + pad else (node_r + 1) * sub_rows
      in
      let c_lo = if node_c = 0 then -pad else node_c * sub_cols in
      let c_hi =
        if node_c = gcols - 1 then cols + pad else (node_c + 1) * sub_cols
      in
      for r0 = r_lo to r_hi - 1 do
        let lr = r0 - (node_r * sub_rows) in
        for c0 = c_lo to c_hi - 1 do
          let lc = c0 - (node_c * sub_cols) in
          let corner = (r0 < 0 || r0 >= rows) && (c0 < 0 || c0 >= cols) in
          let v =
            if corner && not needs_corners then 0.0
            else Memory.read mem (base + ((lr + pad) * hpcols) + (lc + pad))
          in
          fraw.(((r0 + pad) * frame_cols) + (c0 + pad)) <- v
        done
      done);
  Dist.scatter_into ~pool dst (Fft.execute ~pool fplan ~padded:frame)

type compute = Compiled of mode * inner | Transform of Fft.plan

(* The compute phase of one statement: evaluate it with the chosen
   backend over the exchanged temporaries into [dst].  [halos] may be
   padded wider than the statement's own border (a batch pads to the
   widest statement); the inner loops index by each halo's pad, so a
   narrower pattern simply reads inside the border. *)
let compute_statement ~obs ~compute ~pool ~tile ~hooks machine stmt price
    ~(halos : Halo.exchange array) ~(dst : Dist.t) ~(streams : Dist.t array) =
  let config = Machine.config machine in
  let nnodes = Machine.node_count machine in
  (* The per-node loops fire the node's hook and log its halo read
     before touching its memory. *)
  let per_node f =
    Pool.iter pool nnodes (fun node ->
        hooks.on_compute_node node;
        Access.read "halo.node" (Dist.probe_slot machine node);
        f node (Machine.memory machine node))
  in
  (* The layouts are identical on every node (Machine.alloc_all asserts
     it), so one set of bindings — and one kernel specialization, one
     tile decomposition — serves the whole machine. *)
  let sources =
    Array.map
      (fun (h : Halo.exchange) ->
        {
          Interp.padded = h.Halo.padded;
          padded_cols = h.Halo.padded_cols;
          pad = h.Halo.pad;
        })
      halos
  in
  let bindings memory =
    {
      Interp.memory;
      sources;
      dst = dst.Dist.region;
      dst_cols = dst.Dist.sub_cols;
      coeffs = Array.map (fun d -> d.Dist.region) streams;
    }
  in
  Access.set_phase "compute";
  Obs.span obs "run.compute" (fun () ->
      (* One child span per half-strip, timed in simulated cycles by
         the analytic model (which Simulate provably matches). *)
      if Obs.tracing obs then begin
        List.iter
          (fun (hs : Stripmine.halfstrip) ->
            let lines = Array.length hs.rows in
            Tr.emit obs.Obs.trace
              ~attrs:
                [
                  ("width", Tr.Int hs.strip.plan.Plan.width);
                  ("col0", Tr.Int hs.strip.col0);
                  ("lines", Tr.Int lines);
                  ( "cycles",
                    Tr.Int (Cost.halfstrip_cycles config hs.strip.plan ~lines) );
                ]
              "run.halfstrip")
          price.halfstrips;
        Tr.add_attr obs.Obs.trace "cycles" (Tr.Int price.cycles);
        Tr.add_attr obs.Obs.trace "madds" (Tr.Int price.madds)
      end;
      match compute with
      | Compiled (Fast, Lowered) ->
          let k =
            match stmt.kernel with
            | Some k -> k
            | None -> Kernel.lower stmt.multi
          in
          let spec =
            Kernel.specialize k ~tile ~sub_rows:dst.Dist.sub_rows
              (bindings (Machine.memory machine 0))
          in
          (* The pool's queue items are (node, tile) pairs, node-major:
             tiles touch disjoint destination spans, so any claim order
             is bit-identical to the sequential walk.  The per-node
             hook and the halo-consumption probe fire once per node, on
             its first tile; every item logs its own [exec.tile] slot
             (node probe slot above the tile index) so the analyzer's
             partition rule sees per-item ownership, not per-node. *)
          let ntiles = Kernel.tile_count spec in
          Pool.iter pool (nnodes * ntiles) (fun item ->
              let node = item / ntiles and tl = item mod ntiles in
              let slot = Dist.probe_slot machine node in
              if tl = 0 then begin
                hooks.on_compute_node node;
                Access.read "halo.node" slot
              end;
              Access.write "exec.tile" ((slot lsl 20) + tl);
              Kernel.exec_tile spec tl (Memory.raw (Machine.memory machine node)))
      | Compiled (Fast, Tapwalk) ->
          per_node (fun node mem ->
              Access.write "exec.dst" (Dist.probe_slot machine node);
              tapwalk stmt.multi ~sub_rows:dst.Dist.sub_rows (bindings mem))
      | Compiled (Simulate, _) ->
          (* Simulation is the checking mode: beyond Cost = Interp below,
             every plan the strips draw on must be clean under the
             standalone analyzer. *)
          List.iter (Ccc_analysis.Verify.verify_exn config) stmt.plans;
          (* Per-domain accumulation: each chunk writes only its own
             nodes' slots; the checks run after the barrier on the
             coordinating domain, lowest node first, so a divergence
             reports the same node at every jobs value. *)
          let outcomes = Array.make nnodes Interp.zero_outcome in
          per_node (fun node memory ->
              Access.write "exec.dst" (Dist.probe_slot machine node);
              Access.write "exec.outcome" (Dist.probe_slot machine node);
              let bindings = bindings memory in
              outcomes.(node) <-
                List.fold_left
                  (fun acc (hs : Stripmine.halfstrip) ->
                    Interp.add_outcome acc
                      (Interp.run_halfstrip config hs.strip.plan bindings
                         ~col0:hs.strip.col0 ~rows:hs.rows))
                  Interp.zero_outcome price.halfstrips);
          (* The analytic model and the interpreter must agree on every
             node; a divergence is a bug in one of them. *)
          Array.iteri
            (fun node (total : Interp.outcome) ->
              Access.read "exec.outcome" (Dist.probe_slot machine node);
              let agree what got want =
                if got <> want then
                  failwith
                    (Printf.sprintf
                       "Exec: node %d: interpreter %s %d, model predicts %d"
                       node what got want)
              in
              agree "cycles" total.Interp.cycles price.cycles;
              agree "madds" total.Interp.madds price.madds)
            outcomes
      | Transform fplan ->
          transform_compute ~pool ~per_node machine fplan ~halo:halos.(0) ~dst);
  hooks.on_phase
    {
      phase = "compute";
      machine;
      source = None;
      halo = Some halos.(0);
      dst = Some dst;
      streams;
    }

(* ------------------------------------------------------------------ *)
(* The pipeline: the run-time library's outer loop, written once. *)

(* Acquire placement -> scatter sources -> fill the first statement's
   streams -> halo exchange(s) -> "halo" hook -> per statement: compute
   -> "compute" hook -> gather (the destination region is shared, so
   each result is gathered before the next statement overwrites it,
   and statements after the first refill their streams first) ->
   stats/obs.  Every public run entry point below is this function
   with a placement, a statement set and a compute backend chosen.
   All statements must read the same source arrays under the same
   boundary semantics (callers validate; a single statement trivially
   does).  [hooks.on_phase] names the first source's distribution and
   exchange. *)
let pipeline ?(obs = Obs.disabled) ?(primitive = Halo.Node_level)
    ?(iterations = 1) ?(pool = Pool.sequential) ?tile ?(hooks = no_hooks)
    ?(attrs = []) ~who ~root ~compute placement stmts env =
  if iterations < 1 then invalid_arg (who ^ ": iterations < 1");
  let machine =
    match placement with Transient m -> m | Standing a -> Arena.machine a
  in
  let config = Machine.config machine in
  let tile = Option.value tile ~default:config.Config.tile in
  List.iter (fun s -> Reference.check_multi s.multi env) stmts;
  let sources = source_set stmts in
  let grids = Array.map (fun s -> Reference.lookup env s.name) sources in
  let sub_rows, sub_cols = subgrid_shape config ~who grids.(0) in
  check_fits sources ~sub_rows ~sub_cols;
  let transform = match compute with Transform _ -> true | Compiled _ -> false in
  let priced =
    List.map (fun s -> (s, price config ~transform s ~sub_rows ~sub_cols)) stmts
  in
  let boundary = Multi.boundary (List.hd stmts).multi in
  let nstreams =
    List.fold_left (fun acc s -> max acc (Array.length (streams_of s))) 0 stmts
  in
  Obs.span obs root ~attrs @@ fun () ->
  with_arena placement @@ fun arena ->
  let slot =
    Arena.acquire arena ~sub_rows ~sub_cols
      ~pads:(Array.map (fun s -> s.pad) sources)
      ~nstreams
  in
  let dst = slot.Arena.dst in
  Access.set_phase "scatter";
  Obs.span obs "run.scatter" (fun () ->
      Array.iteri
        (fun i g -> Dist.scatter_into ~pool slot.Arena.srcs.(i) g)
        grids);
  let fill stmt =
    let spec = streams_of stmt in
    let streams = Array.sub slot.Arena.streams 0 (Array.length spec) in
    if Array.length spec > 0 then begin
      Access.set_phase "streams";
      Obs.span obs "run.streams" (fun () -> fill_streams ~pool env streams spec)
    end;
    streams
  in
  let first_streams = fill (List.hd stmts) in
  Access.set_phase "halo";
  let halos, halo_cycles =
    Obs.span obs "run.halo" @@ fun () ->
    let hs =
      Array.mapi
        (fun i s ->
          Halo.exchange_into ~primitive ~pool ~padded:slot.Arena.halos.(i)
            ~source:slot.Arena.srcs.(i) ~pad:s.pad ~boundary
            ~needs_corners:s.corners ())
        sources
    in
    let cycles = Array.fold_left (fun acc h -> acc + h.Halo.cycles) 0 hs in
    if Obs.tracing obs then Tr.add_attr obs.Obs.trace "cycles" (Tr.Int cycles);
    (hs, cycles)
  in
  hooks.on_phase
    {
      phase = "halo";
      machine;
      source = Some slot.Arena.srcs.(0);
      halo = Some halos.(0);
      dst = Some dst;
      streams = first_streams;
    };
  let outputs =
    List.mapi
      (fun i (stmt, price) ->
        let streams = if i = 0 then first_streams else fill stmt in
        compute_statement ~obs ~compute ~pool ~tile ~hooks machine stmt price
          ~halos ~dst ~streams;
        Access.set_phase "gather";
        Obs.span obs "run.gather" (fun () -> Dist.gather ~pool dst))
      priced
  in
  let each, batch_stats =
    set_stats config ~iterations
      ~halo_cycles
      ~global_points:(Grid.rows grids.(0) * Grid.cols grids.(0))
      priced
  in
  (* A one-shot run closes with its front-end time as a span of its
     own; the engine's standing runs account it in their metrics. *)
  (match placement with
  | Transient _ when Obs.tracing obs ->
      Tr.emit obs.Obs.trace
        ~attrs:[ ("seconds", Tr.Float batch_stats.Stats.frontend_s) ]
        "run.frontend"
  | _ -> ());
  if obs != Obs.disabled then Stats.record obs.Obs.metrics batch_stats;
  {
    batch_results = List.map2 (fun output stats -> { output; stats }) outputs each;
    batch_stats;
  }

let single { batch_results; batch_stats } =
  { output = (List.hd batch_results).output; stats = batch_stats }

(* ------------------------------------------------------------------ *)
(* Entry points: a placement, a statement set and a backend each. *)

let run ?obs ?(mode = Fast) ?primitive ?iterations ?pool ?(inner = Lowered)
    ?kernel ?tile ?hooks machine compiled env =
  single
    (pipeline ?obs ?primitive ?iterations ?pool ?tile ?hooks ~who:"Exec.run"
       ~root:"run" ~compute:(Compiled (mode, inner)) (Transient machine)
       [ stmt_of_compiled ?kernel compiled ]
       env)

let run_arena ?obs ?(mode = Fast) ?primitive ?iterations ?pool
    ?(inner = Lowered) ?kernel ?tile ?hooks arena compiled env =
  single
    (pipeline ?obs ?primitive ?iterations ?pool ?tile ?hooks
       ~who:"Exec.run_arena" ~root:"run" ~compute:(Compiled (mode, inner))
       (Standing arena)
       [ stmt_of_compiled ?kernel compiled ]
       env)

let run_fused ?obs ?(mode = Fast) ?primitive ?iterations ?pool
    ?(inner = Lowered) ?tile machine fused env =
  single
    (pipeline ?obs ?primitive ?iterations ?pool ?tile ~who:"Exec.run_fused"
       ~root:"run.fused" ~compute:(Compiled (mode, inner)) (Transient machine)
       [ stmt_of_fused fused ] env)

(* The transform path: the plan is resolved before any node memory is
   touched, so a [Varying] or [Unbound] coefficient leaves no machine
   state behind.  A caller-supplied (cached) plan is re-bound against
   this call's environment; when the values already match, the cached
   spectrum is reused untouched. *)
let run_fft ?obs ?primitive ?iterations ?pool ?plan ?hooks machine pattern env
    =
  Reference.check_env pattern env;
  let source = Reference.lookup env (Pattern.source_var pattern) in
  let rows = Grid.rows source and cols = Grid.cols source in
  let fplan =
    match plan with
    | Some p ->
        if Fft.rows p <> rows || Fft.cols p <> cols then
          invalid_arg "Exec.run_fft: plan shape does not match the source";
        ignore (Fft.rebind p env);
        p
    | None -> Fft.plan pattern ~rows ~cols env
  in
  single
    (pipeline ?obs ?primitive ?iterations ?pool ?hooks ~who:"Exec.run_fft"
       ~root:"run" ~compute:(Transform fplan) (Transient machine)
       [ stmt_of_pattern pattern ] env)

let check_batch patterns =
  match patterns with
  | [] -> Error "a batch needs at least one statement"
  | first :: rest ->
      let source_var = Pattern.source_var first in
      let boundary = Pattern.boundary first in
      let rec check = function
        | [] -> Ok ()
        | p :: rest ->
            if Pattern.source_var p <> source_var then
              Error
                (Printf.sprintf
                   "statements read %s and %s; a batch shares one source \
                    array behind one halo exchange"
                   source_var (Pattern.source_var p))
            else if not (Boundary.equal (Pattern.boundary p) boundary) then
              Error
                "statements mix boundary semantics; a batch shares one halo \
                 exchange"
            else check rest
      in
      check rest

let run_batch_arena ?obs ?(mode = Fast) ?primitive ?pool ?(inner = Lowered)
    ?kernels ?tile arena compileds env =
  (match check_batch (List.map (fun c -> c.Compile.pattern) compileds) with
  | Ok () -> ()
  | Error m -> invalid_arg ("Exec.run_batch_arena: " ^ m));
  let kernels =
    match kernels with
    | None -> List.map (fun _ -> None) compileds
    | Some ks ->
        if List.length ks <> List.length compileds then
          invalid_arg "Exec.run_batch_arena: one kernel per statement";
        List.map Option.some ks
  in
  let attrs =
    match obs with
    | Some o when Obs.tracing o ->
        [ ("statements", Tr.Int (List.length compileds)) ]
    | _ -> []
  in
  pipeline ?obs ?primitive ?pool ?tile ~attrs ~who:"Exec.run_batch_arena"
    ~root:"run.batch" ~compute:(Compiled (mode, inner)) (Standing arena)
    (List.map2 (fun kernel c -> stmt_of_compiled ?kernel c) kernels compileds)
    env

(* ------------------------------------------------------------------ *)
(* Timing without data. *)

(* The pricing prelude every estimate shares: fit the borders, walk the
   strips and half-strips, total them, and price the exchanges. *)
let model ~primitive ~transform ~sub_rows ~sub_cols config stmt =
  let sources = source_set [ stmt ] in
  check_fits sources ~sub_rows ~sub_cols;
  let comm =
    Array.fold_left
      (fun acc s ->
        acc
        + Halo.cycles_model ~primitive ~sub_rows ~sub_cols ~pad:s.pad
            ~corners:s.corners config)
      0 sources
  in
  (price config ~transform stmt ~sub_rows ~sub_cols, comm)

let estimate_stmt ~who ?(primitive = Halo.Node_level) ?(iterations = 1)
    ~transform ~sub_rows ~sub_cols config stmt =
  if iterations < 1 then invalid_arg (who ^ ": iterations < 1");
  let p, comm = model ~primitive ~transform ~sub_rows ~sub_cols config stmt in
  snd
    (set_stats config ~iterations ~halo_cycles:comm
       ~global_points:(sub_rows * sub_cols * Config.node_count config)
       [ (stmt, p) ])

let estimate ?primitive ?iterations ~sub_rows ~sub_cols config compiled =
  estimate_stmt ~who:"Exec.estimate" ?primitive ?iterations ~transform:false
    ~sub_rows ~sub_cols config (stmt_of_compiled compiled)

let estimate_fused ?primitive ?iterations ~sub_rows ~sub_cols config fused =
  estimate_stmt ~who:"Exec.estimate_fused" ?primitive ?iterations
    ~transform:false ~sub_rows ~sub_cols config (stmt_of_fused fused)

let estimate_fft ?primitive ?iterations ~sub_rows ~sub_cols config pattern =
  estimate_stmt ~who:"Exec.estimate_fft" ?primitive ?iterations
    ~transform:true ~sub_rows ~sub_cols config (stmt_of_pattern pattern)

(* Per-phase cycle attribution: Table 1 as live telemetry. *)
let attribute ?(primitive = Halo.Node_level) ~sub_rows ~sub_cols config
    compiled =
  let p, comm_cycles =
    model ~primitive ~transform:false ~sub_rows ~sub_cols config
      (stmt_of_compiled compiled)
  in
  {
    Profiler.comm_cycles;
    compute =
      List.fold_left
        (fun acc (hs : Stripmine.halfstrip) ->
          Profiler.add acc
            (Profiler.halfstrip config hs.strip.plan
               ~lines:(Array.length hs.rows)))
        Profiler.zero p.halfstrips;
    frontend_s = Config.effective_call_s config +. p.stall_s;
  }

type backend = Auto | Force_compiled | Force_fft

let backend_of_string = function
  | "auto" -> Some Auto
  | "compiled" -> Some Force_compiled
  | "fft" -> Some Force_fft
  | _ -> None

let backend_name = function
  | Auto -> "auto"
  | Force_compiled -> "compiled"
  | Force_fft -> "fft"

(* The planner: a pure function of the configuration, the compiled
   plans (if any) and the grid shape, so the choice is deterministic
   and testable without a machine.  The compiled side prices with
   [estimate] (the Table-1-calibrated model), the transform side with
   [Cost.fft_cycles]; ties go to the compiled path, whose results are
   bit-identical to the simulator. *)
let select_backend ?(backend = Auto) ~sub_rows ~sub_cols config compiled =
  match (backend, compiled) with
  | Force_compiled, _ -> `Compiled
  | Force_fft, _ -> `Fft
  | Auto, None -> `Fft
  | Auto, Some c -> (
      match estimate ~sub_rows ~sub_cols config c with
      | exception Too_small _ ->
          (* Neither path fits a subgrid smaller than the border; defer
             to the compiled path so the run reports the [Too_small]
             diagnosis rather than pricing an impossible transform. *)
          `Compiled
      | s ->
          let pattern = c.Compile.pattern in
          let pad = Pattern.max_border pattern in
          let rows = sub_rows * config.Config.node_rows
          and cols = sub_cols * config.Config.node_cols in
          if
            s.Stats.comm_cycles + s.Stats.compute_cycles
            <= Cost.fft_cycles config ~rows ~cols ~pad
          then `Compiled
          else `Fft)

(* ------------------------------------------------------------------ *)
(* Oracles and teaching aids. *)

let reference_fused = Reference.apply_multi

let trace ?width ?(lines = 3) (config : Config.t) compiled =
  let plan, how =
    match width with
    | Some w -> begin
        match Compile.plan_for_width compiled w with
        | Some p -> (p, "requested")
        | None -> invalid_arg "Exec.trace: no plan of that width"
      end
    | None -> (Compile.widest compiled, "widest available")
  in
  let pattern = compiled.Compile.pattern in
  let pad = Pattern.max_border pattern in
  let w = plan.Plan.width in
  (* A one-node sandbox big enough for the half-strip plus halo. *)
  let rows = lines + (2 * pad) + 4 and cols = w in
  let mem = Memory.create ~words:(1 lsl 16) in
  let pcols = cols + (2 * pad) in
  let padded = Memory.alloc mem ~words:((rows + (2 * pad)) * pcols) in
  let dst = Memory.alloc mem ~words:(rows * cols) in
  let coeffs =
    Array.map
      (fun _ -> Memory.alloc mem ~words:(rows * cols))
      plan.Plan.coeff_streams
  in
  let bindings =
    {
      Interp.memory = mem;
      sources = [| { Interp.padded; padded_cols = pcols; pad } |];
      dst;
      dst_cols = cols;
      coeffs;
    }
  in
  (* The issue trace rides the span tracer: each dynamic part becomes
     a zero-length span timestamped in sequencer cycles (the clock is
     pinned to zero — simulated cycles are the meaningful axis), and
     the historical line format is rendered from the recorded tree. *)
  let tracer = Tr.create ~clock:(fun () -> 0.0) () in
  let sweep = Array.init lines (fun t -> pad + lines - 1 - t) in
  Tr.with_span tracer
    ~attrs:[ ("width", Tr.Int w); ("lines", Tr.Int lines) ]
    "trace.halfstrip"
    (fun () ->
      let observer ~cycle ~row slot =
        Tr.emit tracer ~ts:(float_of_int cycle)
          ~attrs:
            [
              ("row", Tr.Int row);
              ("slot", Tr.Str (Format.asprintf "%a" Ccc_microcode.Instr.pp slot));
            ]
          "issue"
      in
      ignore
        (Interp.run_halfstrip ~observer config plan bindings ~col0:0
           ~rows:sweep));
  let root = List.hd (Tr.roots tracer) in
  let header =
    Printf.sprintf "half-strip: width %d (%s), %d lines" w how lines
  in
  header
  :: List.map
       (fun s ->
         let cycle = int_of_float (Tr.span_ts s) in
         let row =
           match Tr.find_attr s "row" with Some (Tr.Int r) -> r | _ -> 0
         in
         let slot =
           match Tr.find_attr s "slot" with Some (Tr.Str t) -> t | _ -> ""
         in
         Printf.sprintf "cycle %4d  row %2d  %s" cycle row slot)
       (Tr.span_children root)
