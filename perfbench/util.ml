(* Timing, statistics and reporting helpers shared by the workloads
   and the traced run. *)

(* Monotonic wall clock.  Safe to call from any domain, so it also
   drives the serve scheduler and the span tracers. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let now_us () = Int64.to_float (Monotonic_clock.now ()) *. 1e-3

let time f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array. *)
let rank_pct a q =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The [q] percentile (nearest rank) and the number of samples beyond
   it. *)
let tail q xs =
  let a = sorted xs in
  let n = Array.length a in
  (rank_pct a q, n - int_of_float (ceil (q *. float_of_int n)))

(* Peak resident set of this process, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.0

(* A metric as printed: name, value, unit, and the number of samples
   behind it (1 for a count or a single measurement). *)
type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

let json_float v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"
