(* Declarative sweep specification: a cell kind, an ordered list of
   parameter axes, and a list of seeds.  The cartesian product of axis
   values times seeds is the campaign's cell grid; every grid point has
   a deterministic id built from its bindings, so a campaign directory
   can be resumed, diffed and joined across runs by id alone. *)

type axis = {
  axis_name : string;
  values : string list;
}

type t = {
  name : string;
  cell : string;
  seeds : int list;
  quick : bool;
  trace_every : int;  (* 0 = no traces; else every Nth grid point *)
  axes : axis list;
}

type point = {
  id : string;
  params : (string * string) list;
  seed : int;
  traced : bool;
}

let schema = "dsas-campaign-spec/1"

(* Ids become file names and diff keys: restrict every token to a
   filesystem- and separator-safe alphabet. *)
let token_ok s =
  String.length s > 0
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '.' || c = '_' || c = '-')
       s

let validate t =
  let check cond msg = if cond then Ok () else Error msg in
  let ( let* ) = Result.bind in
  let* () = check (token_ok t.name) "campaign name must be a [A-Za-z0-9._-]+ token" in
  let* () = check (token_ok t.cell) "cell kind must be a [A-Za-z0-9._-]+ token" in
  let* () = check (t.seeds <> []) "seeds must be non-empty" in
  let* () = check (t.trace_every >= 0) "trace_every must be >= 0" in
  let rec check_axes seen = function
    | [] -> Ok ()
    | a :: rest ->
      if not (token_ok a.axis_name) then
        Error (Printf.sprintf "axis name %S must be a [A-Za-z0-9._-]+ token" a.axis_name)
      else if a.axis_name = "seed" then
        Error "axis name \"seed\" is reserved (use the seeds list)"
      else if List.mem a.axis_name seen then
        Error (Printf.sprintf "duplicate axis %S" a.axis_name)
      else if a.values = [] then
        Error (Printf.sprintf "axis %S has no values" a.axis_name)
      else begin
        match List.find_opt (fun v -> not (token_ok v)) a.values with
        | Some v ->
          Error
            (Printf.sprintf "axis %S value %S must be a [A-Za-z0-9._-]+ token"
               a.axis_name v)
        | None -> check_axes (a.axis_name :: seen) rest
      end
  in
  check_axes [] t.axes

let id_of ~params ~seed =
  String.concat ","
    (List.map (fun (k, v) -> k ^ "=" ^ v) params @ [ Printf.sprintf "seed=%d" seed ])

let points t =
  let combos =
    List.fold_left
      (fun acc axis ->
        List.concat_map
          (fun params -> List.map (fun v -> params @ [ (axis.axis_name, v) ]) axis.values)
          acc)
      [ [] ] t.axes
  in
  let flat =
    List.concat_map
      (fun params -> List.map (fun seed -> (params, seed)) t.seeds)
      combos
  in
  List.mapi
    (fun i (params, seed) ->
      {
        id = id_of ~params ~seed;
        params;
        seed;
        traced = t.trace_every > 0 && i mod t.trace_every = 0;
      })
    flat

let to_json t =
  let axis_obj a =
    Obs.Json.Raw
      (Obs.Json.obj
         [
           ("name", Obs.Json.String a.axis_name);
           ( "values",
             Obs.Json.Raw
               (Obs.Json.array (List.map (fun v -> Obs.Json.String v) a.values)) );
         ])
  in
  Obs.Json.obj
    [
      ("schema", Obs.Json.String schema);
      ("name", Obs.Json.String t.name);
      ("cell", Obs.Json.String t.cell);
      ( "seeds",
        Obs.Json.Raw (Obs.Json.array (List.map (fun s -> Obs.Json.Int s) t.seeds)) );
      ("quick", Obs.Json.Raw (if t.quick then "true" else "false"));
      ("trace_every", Obs.Json.Int t.trace_every);
      ("axes", Obs.Json.Raw (Obs.Json.array (List.map axis_obj t.axes)));
    ]

(* The hash is over the canonical serialisation, so any change to the
   grid — name, cell, an axis value, a seed — re-keys the campaign and
   a resume into a stale directory is refused. *)
let config_hash t = Digest.to_hex (Digest.string (to_json t))

let string_of_num f =
  if Float.is_integer f && abs_float f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let of_json text =
  let ( let* ) = Result.bind in
  match Obs.Json.parse_tree text with
  | None -> Error "malformed JSON"
  | Some doc ->
    let* () =
      match Obs.Json.tree_str doc "schema" with
      | Some s when s = schema -> Ok ()
      | Some other -> Error (Printf.sprintf "schema %S, expected %S" other schema)
      | None -> Error "missing \"schema\" field"
    in
    let* name =
      match Obs.Json.tree_str doc "name" with
      | Some n -> Ok n
      | None -> Error "missing \"name\" field"
    in
    let* cell =
      match Obs.Json.tree_str doc "cell" with
      | Some c -> Ok c
      | None -> Error "missing \"cell\" field"
    in
    let* seeds =
      match Obs.Json.tree_mem doc "seeds" with
      | None -> Ok [ 0 ]
      | Some (Obs.Json.TArr items) ->
        let rec ints acc = function
          | [] -> Ok (List.rev acc)
          | Obs.Json.TNum f :: rest -> ints (int_of_float f :: acc) rest
          | _ -> Error "\"seeds\" must be an array of integers"
        in
        ints [] items
      | Some _ -> Error "\"seeds\" must be an array of integers"
    in
    let quick =
      match Obs.Json.tree_mem doc "quick" with
      | Some (Obs.Json.TBool b) -> b
      | _ -> false
    in
    let trace_every =
      match Obs.Json.tree_num doc "trace_every" with
      | Some f -> int_of_float f
      | None -> 0
    in
    let* axes =
      match Obs.Json.tree_mem doc "axes" with
      | None -> Ok []
      | Some (Obs.Json.TArr items) ->
        let axis_of item =
          match Obs.Json.tree_str item "name" with
          | None -> Error "axis missing \"name\""
          | Some axis_name ->
            (match Obs.Json.tree_mem item "values" with
             | Some (Obs.Json.TArr vs) ->
               let value_of = function
                 | Obs.Json.TStr s -> Ok s
                 | Obs.Json.TNum f -> Ok (string_of_num f)
                 | _ ->
                   Error
                     (Printf.sprintf "axis %S values must be strings or numbers"
                        axis_name)
               in
               let rec all acc = function
                 | [] -> Ok (List.rev acc)
                 | v :: rest ->
                   (match value_of v with
                    | Ok s -> all (s :: acc) rest
                    | Error e -> Error e)
               in
               Result.map (fun values -> { axis_name; values }) (all [] vs)
             | _ -> Error (Printf.sprintf "axis %S missing \"values\" array" axis_name))
        in
        let rec all acc = function
          | [] -> Ok (List.rev acc)
          | item :: rest ->
            (match axis_of item with
             | Ok a -> all (a :: acc) rest
             | Error e -> Error e)
        in
        all [] items
      | Some _ -> Error "\"axes\" must be an array"
    in
    let t = { name; cell; seeds; quick; trace_every; axes } in
    let* () = validate t in
    Ok t

let load filename =
  match Obs.File.read filename with
  | Error msg -> Error msg
  | Ok text ->
    (match of_json text with
     | Ok t -> Ok t
     | Error msg -> Error (Printf.sprintf "%s: %s" filename msg))
