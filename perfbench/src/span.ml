(* The benchmark's own trace: an in-memory span buffer filled around calls
   into the libraries' public functions.  It never arms [Obs.Metrics] or
   [Obs.Trace]: with either on, [Serve.Server] drops to one domain and the
   traced program would no longer be the measured one. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a request's root span *)
  req : int;  (** request id shared by every span of one request *)
  start : float;
  stop : float;
}

type buf = {
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable cur : int;
  mutable req : int;
}

type t = buf option
(** [None] records nothing: the untraced configuration. *)

let now = Unix.gettimeofday
let create () : t = Some { spans = []; next = 0; cur = -1; req = -1 }

let with_ (t : t) name f =
  match t with
  | None -> f ()
  | Some b ->
      let id = b.next in
      b.next <- id + 1;
      let parent = b.cur in
      b.cur <- id;
      let start = now () in
      let finish () =
        let stop = now () in
        b.cur <- parent;
        b.spans <- { id; name; parent; req = b.req; start; stop } :: b.spans
      in
      (match f () with
      | r ->
          finish ();
          r
      | exception e ->
          finish ();
          raise e)

(* A request: a root span whose children are the layer calls it makes. *)
let request (t : t) name f =
  match t with
  | None -> f ()
  | Some b ->
      b.req <- b.next;
      with_ t name f

let spans (t : t) = match t with None -> [] | Some b -> List.rev b.spans
let dur s = s.stop -. s.start

(* The layer a span belongs to: its name up to the first dot. *)
let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

type analysis = {
  requests : int;
  request_ms : float;  (** total wall time of all requests *)
  self_ms : (string * float) list;
      (** per layer, total self time: span time not covered by children *)
  unaccounted_ms : float;
      (** request time covered by no named child span *)
  coverage_p01_pct : float;
      (** the 1st percentile over requests of the share of each request's
          wall time covered by named spans; the rare request below it was
          hit by a collection or a host stall between two spans *)
  below_90 : int;  (** requests whose named spans cover under 90% *)
  by_name : (string, float list) Hashtbl.t;  (** durations (ms) per name *)
}

let analyse (t : t) =
  let all = spans t in
  let child_ms = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0. (Hashtbl.find_opt child_ms s.parent) in
        Hashtbl.replace child_ms s.parent (prev +. (1000. *. dur s)))
    all;
  let self = Hashtbl.create 16 and by_name = Hashtbl.create 64 in
  let requests = ref 0 and request_ms = ref 0. and unaccounted = ref 0. in
  let cov = ref [] in
  List.iter
    (fun s ->
      let ms = 1000. *. dur s in
      let covered = Option.value ~default:0. (Hashtbl.find_opt child_ms s.id) in
      let own = Float.max 0. (ms -. covered) in
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (ms :: prev);
      if s.parent < 0 then begin
        incr requests;
        request_ms := !request_ms +. ms;
        unaccounted := !unaccounted +. own;
        if ms > 0. then cov := (100. *. Float.min 1. (covered /. ms)) :: !cov
      end
      else
        let l = layer s.name in
        let prev = Option.value ~default:0. (Hashtbl.find_opt self l) in
        Hashtbl.replace self l (prev +. own))
    all;
  {
    requests = !requests;
    request_ms = !request_ms;
    self_ms =
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) self []);
    unaccounted_ms = !unaccounted;
    coverage_p01_pct = (if !cov = [] then 0. else Bstat.quantile (Array.of_list !cov) 0.01);
    below_90 = List.length (List.filter (fun c -> c < 90.) !cov);
    by_name;
  }

(* Mean duration (ms) of the spans with this name; 0 when there are none
   (the layer is not on this workload's path). *)
let mean_ms a name =
  match Hashtbl.find_opt a.by_name name with
  | None | Some [] -> 0.
  | Some l -> Bstat.mean_list l

let self_ms a layer = Option.value ~default:0. (List.assoc_opt layer a.self_ms)

(* Write every span as one JSON line. *)
let write (t : t) path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("id", Obs.Json.Num (float_of_int s.id));
                ("parent", Obs.Json.Num (float_of_int s.parent));
                ("req", Obs.Json.Num (float_of_int s.req));
                ("name", Obs.Json.Str s.name);
                ("start", Obs.Json.Num s.start);
                ("stop", Obs.Json.Num s.stop);
              ]));
      output_char oc '\n')
    (spans t);
  close_out oc
