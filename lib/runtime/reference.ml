open Ccc_stencil

type env = (string * Grid.t) list

exception Unbound of string
exception Shape_mismatch of string

let lookup env name =
  match List.assoc_opt name env with
  | Some grid -> grid
  | None -> raise (Unbound name)

let coeff_value env coeff r c =
  match coeff with
  | Coeff.Array name -> Grid.get (lookup env name) r c
  | Coeff.Scalar v -> v
  | Coeff.One -> 1.0

let referenced_arrays pattern =
  Multi.referenced_arrays (Multi.of_pattern pattern)

let check_multi multi env =
  let first = List.hd (Multi.sources multi) in
  let source = lookup env first in
  let rows = Grid.rows source and cols = Grid.cols source in
  List.iter
    (fun name ->
      let g = lookup env name in
      if Grid.rows g <> rows || Grid.cols g <> cols then
        raise
          (Shape_mismatch
             (Printf.sprintf "%s is %dx%d but %s is %dx%d" name (Grid.rows g)
                (Grid.cols g) first rows cols)))
    (Multi.referenced_arrays multi)

let check_env pattern env = check_multi (Multi.of_pattern pattern) env

let apply_multi multi env =
  check_multi multi env;
  let sources =
    Array.of_list (List.map (lookup env) (Multi.sources multi))
  in
  let read =
    match Multi.boundary multi with
    | Boundary.Circular -> fun src r c -> Grid.get_circular sources.(src) r c
    | Boundary.End_off fill ->
        fun src r c -> Grid.get_endoff sources.(src) ~fill r c
  in
  Grid.init ~rows:(Grid.rows sources.(0)) ~cols:(Grid.cols sources.(0))
    (fun r c ->
      let sum =
        List.fold_left
          (fun acc (st : Multi.source_tap) ->
            let { Offset.drow; dcol } = st.Multi.tap.Tap.offset in
            acc
            +. (coeff_value env st.Multi.tap.Tap.coeff r c
               *. read st.Multi.source (r + drow) (c + dcol)))
          0.0 (Multi.taps multi)
      in
      match Multi.bias multi with
      | Some coeff -> sum +. coeff_value env coeff r c
      | None -> sum)

let apply pattern env = apply_multi (Multi.of_pattern pattern) env
