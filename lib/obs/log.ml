type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type field = Str of string | Int of int | Float of float | Bool of bool

type event = {
  ts_ns : float;
  level : level;
  name : string;
  span : string option;
  fields : (string * field) list;
}

(* --- formatting --------------------------------------------------------- *)

let bare_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '.' || c = '/' || c = ':'

let field_to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Bool b -> string_of_bool b
  | Str s ->
    if s <> "" && String.for_all bare_char s then s else Printf.sprintf "%S" s

let format_event e =
  let buf = Buffer.create 96 in
  Buffer.add_string buf
    (Printf.sprintf "[%10.3fms] %-5s %s" (e.ts_ns /. 1e6)
       (String.uppercase_ascii (level_name e.level))
       e.name);
  (match e.span with
  | Some s -> Buffer.add_string buf (" (in " ^ s ^ ")")
  | None -> ());
  List.iter
    (fun (k, v) -> Buffer.add_string buf (" " ^ k ^ "=" ^ field_to_string v))
    e.fields;
  Buffer.contents buf

let field_json = function
  | Str s -> Json.String s
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Bool b -> Json.Bool b

let event_json e =
  Json.Obj
    ([
       ("ts_ns", Json.Float e.ts_ns);
       ("level", Json.String (level_name e.level));
       ("event", Json.String e.name);
     ]
    @ (match e.span with
      | Some s -> [ ("span", Json.String s) ]
      | None -> [])
    @ [ ("fields", Json.Obj (List.map (fun (k, v) -> (k, field_json v)) e.fields)) ])

let text_sink oc e =
  output_string oc (format_event e);
  output_char oc '\n';
  flush oc

let json_sink oc e =
  output_string oc (Json.to_string (event_json e));
  output_char oc '\n';
  flush oc

(* --- flight recorder ---------------------------------------------------- *)

module Recorder = struct
  type t = { buf : event option array; mutable next : int; mutable total : int }

  let create ?(capacity = 64) () =
    if capacity <= 0 then invalid_arg "Log.Recorder.create: capacity must be positive";
    { buf = Array.make capacity None; next = 0; total = 0 }

  let record r e =
    r.buf.(r.next) <- Some e;
    r.next <- (r.next + 1) mod Array.length r.buf;
    r.total <- r.total + 1

  let seen r = r.total

  let clear r =
    Array.fill r.buf 0 (Array.length r.buf) None;
    r.next <- 0;
    r.total <- 0

  let events r =
    let cap = Array.length r.buf in
    let out = ref [] in
    for i = cap - 1 downto 0 do
      match r.buf.((r.next + i) mod cap) with
      | Some e -> out := e :: !out
      | None -> ()
    done;
    !out

  let dump r =
    match events r with
    | [] -> ""
    | evs ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf
        (Printf.sprintf "flight recorder (last %d of %d events):"
           (List.length evs) r.total);
      List.iter
        (fun e ->
          Buffer.add_char buf '\n';
          Buffer.add_string buf ("  " ^ format_event e))
        evs;
      Buffer.contents buf
end

(* Each domain owns its always-on ring: workers that log never race on
   a shared array. *)
let default_key : Recorder.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Recorder.create ~capacity:128 ())

(* Bound at module init, i.e. the main domain's ring. *)
let default_recorder = Domain.DLS.get default_key

(* Extra rings currently capturing, innermost first ([with_recorder]).
   Domain-local: a recorder pushed on one domain captures only that
   domain's events, so a worker wrapping its work in [with_recorder]
   cannot see (or race with) events from its siblings. *)
let extra_recorders : Recorder.t list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let with_recorder r f =
  let extras = Domain.DLS.get extra_recorders in
  extras := r :: !extras;
  Fun.protect
    ~finally:(fun () -> extras := List.filter (fun r' -> r' != r) !extras)
    f

(* --- emission ----------------------------------------------------------- *)

(* Level and sinks are process-wide configuration, written once at CLI
   startup and read from every domain — atomics make the cross-domain
   reads well-defined without a lock on the hot path. *)
let min_level = Atomic.make Info

let set_level l = Atomic.set min_level l

let level () = Atomic.get min_level

let sinks : (event -> unit) list Atomic.t = Atomic.make []

let add_sink s = Atomic.set sinks (Atomic.get sinks @ [ s ])

let clear_sinks () = Atomic.set sinks []

let current_span_name () =
  match Scope.current () with
  | None -> None
  | Some c ->
    Option.map
      (fun (sp : Span.span) -> sp.Span.name)
      (Span.open_span c.Scope.trace ())

let log lvl ?(fields = []) name =
  let e =
    {
      ts_ns = Span.wall_clock_ns ();
      level = lvl;
      name;
      span = current_span_name ();
      fields;
    }
  in
  Recorder.record (Domain.DLS.get default_key) e;
  List.iter (fun r -> Recorder.record r e) !(Domain.DLS.get extra_recorders);
  let ss = Atomic.get sinks in
  if ss <> [] && level_rank lvl >= level_rank (Atomic.get min_level) then
    List.iter (fun s -> s e) ss

let debug ?fields name = log Debug ?fields name

let info ?fields name = log Info ?fields name

let warn ?fields name = log Warn ?fields name

let error ?fields name = log Error ?fields name

let dump_tail () = Recorder.dump (Domain.DLS.get default_key)

let replay r =
  let ss = Atomic.get sinks in
  if ss <> [] then
    List.iter (fun e -> List.iter (fun s -> s e) ss) (Recorder.events r)
