(* The rule set.  Each rule has an id (the suppression/baseline key), a
   one-line description (shown in reports and DESIGN.md), and a zone
   scope derived from the file's repo-relative path.

   Since the engine moved from the parsetree to dune-produced .cmt
   typedtrees, rules match on *resolved* paths ("Stdlib.List.hd" stays
   "List.hd" even behind a module alias; a local function named [hd]
   never matches) and, where it matters, on the instantiated type at the
   use site.  The registries below are the single authority the typed
   rules consult: identifier tables for R1/R2/R4/R5, the comparator set
   and safe-scalar test for R3, the producer/sanitizer/sink sets for R6
   and the mutable-type table plus spawn allowlist for R7. *)

let under prefix path =
  String.length path >= String.length prefix
  && String.equal (String.sub path 0 (String.length prefix)) prefix

(* ---- path zones ---- *)

(* Zones are computed from repo-relative '/'-separated paths.  Per-zone
   rule configuration lives in [active_for] and the R1 refinement
   [r1_seeded_state_ok]. *)
type zone =
  | Lib_obs  (* the telemetry layer: it *is* the clock *)
  | Lib_lp  (* the solver layer: below the certification boundary *)
  | Lib_core
  | Lib_other  (* remaining lib/ sub-libraries, serve included *)
  | Bin
  | Bench
  | Tools
  | Examples
  | Test

let zone_of_path path =
  if under "lib/obs/" path then Lib_obs
  else if under "lib/lp/" path then Lib_lp
  else if under "lib/core/" path then Lib_core
  else if under "lib/" path then Lib_other
  else if under "bin/" path then Bin
  else if under "bench/" path then Bench
  else if under "tools/" path then Tools
  else if under "examples/" path then Examples
  else if under "test/" path then Test
  else Lib_other

let in_lib path = under "lib/" path

type rule = { id : string; title : string; description : string }

let all =
  [
    {
      id = "R1";
      title = "determinism";
      description =
        "ambient entropy and wall-clock reads (global-state Random.*, \
         self_init, Sys.time, Unix.gettimeofday, Hashtbl.hash) are \
         forbidden outside lib/obs and bench/; use lib/rng for randomness \
         and Obs.Trace.now for timestamps.  In test/ an explicitly seeded \
         Random.State is also accepted";
    };
    {
      id = "R2";
      title = "ordered-iteration";
      description =
        "Hashtbl.iter/Hashtbl.fold leak hash-order into results; sort the \
         output (a fold feeding List.sort/Array.sort is accepted) or mark \
         the site order-insensitive with [@lint.allow \"R2\"]";
    };
    {
      id = "R3";
      title = "no-polymorphic-compare";
      description =
        "the polymorphic comparators compare/min/max and =/<> are \
         forbidden where the typedtree shows a nominal or polymorphic \
         instantiation (type variable, record, variant, abstract type); \
         scalars (int, float, string, char, bool, unit), structural \
         compositions of scalars (lists/options/arrays/tuples thereof) \
         and comparisons against ground literals are accepted.  Use \
         Int.compare/Float.equal/explicit comparators";
    };
    {
      id = "R4";
      title = "totality";
      description =
        "partial accessors (List.hd, List.nth, Option.get, Hashtbl.find), \
         matched by resolved path, are forbidden in planner paths \
         (lib/core, lib/lp); use _opt variants or a match that raises \
         with the node/variable name";
    };
    {
      id = "R5";
      title = "io-hygiene";
      description =
        "stdout printing (print_endline, Printf.printf, Format.printf, ...) \
         is forbidden in lib/; take a Format.formatter or emit through \
         lib/obs exporters";
    };
    {
      id = "R6";
      title = "certification-taint";
      description =
        "values of LP-solution/plan type reaching dissemination or serving \
         sinks (Replan.create/consider/force, Simnet_exec collection, \
         Server response construction) must flow through the certified \
         chain (Robust_plan, Model.solve_certified, Certify); raw \
         Revised.solve / Dense_simplex.solve / Model.solve results and \
         hand-built solution records are tracked inter-procedurally and \
         flagged at the sink with their def-use path";
    };
    {
      id = "R7";
      title = "domain-safety";
      description =
        "mutable state (refs, arrays, mutable containers) captured by a \
         closure passed to Domain.spawn must be Atomic.t, \
         and every Domain.spawn must sit in an allowlisted, audited \
         fan-out region (lib/serve server.ml run_tasks); anything else is \
         a latent data race on the serving path";
    };
  ]

let find id = List.find_opt (fun r -> String.equal r.id id) all

(* ---- resolved-path normalization ---- *)

(* Flatten a typedtree [Path.t] to candidate names the registries match
   on.  Dune's wrapped libraries mangle module names ("Prospector__Replan")
   and prefix them with the library alias ("Prospector.Replan.consider");
   both collapse to the same short form.  [Stdlib] is stripped so registry
   entries read like source code ("List.hd", "compare",
   "Random.State.make"). *)
let demangle_component c =
  (* "Lib__Module" -> "Module": keep what follows the last "__" *)
  let n = String.length c in
  let rec scan i best =
    if i + 1 >= n then best
    else if c.[i] = '_' && c.[i + 1] = '_' then scan (i + 2) (Some (i + 2))
    else scan (i + 1) best
  in
  match scan 0 None with
  | Some s when s < n -> String.sub c s (n - s)
  | _ -> c

(* Compilation-unit names as recorded in .cmt headers ("Serve__Server",
   "Dune__exe__Main") demangle the same way as path components. *)
let normalize_modname m = demangle_component m

let normalize_components path =
  let comps =
    String.split_on_char '.' (Path.name path) |> List.map demangle_component
  in
  match comps with "Stdlib" :: rest when rest <> [] -> rest | l -> l

(* The names a resolved path answers to: the fully normalized form and
   its two-component suffix ("Prospector.Replan.consider" also answers
   to "Replan.consider").  Single trailing components are deliberately
   not candidates: "compare" must be Stdlib's, not Finding.compare. *)
let candidates path =
  let comps = normalize_components path in
  let full = String.concat "." comps in
  match List.rev comps with
  | v :: m :: _ :: _ -> [ full; m ^ "." ^ v ]
  | _ -> [ full ]

let path_matches names path =
  let cs = candidates path in
  List.exists (fun n -> List.exists (String.equal n) cs) names

let path_prefix_matches prefixes path =
  let cs = candidates path in
  List.exists (fun p -> List.exists (under p) cs) prefixes

(* ---- R1: ambient entropy ---- *)

(* Global-state Random, self-seeding and wall clocks are always ambient.
   [Random.State.*] on an explicitly seeded state is deterministic and
   accepted in test/ (production code still threads Rng.t). *)
let r1_always_forbidden path =
  path_matches
    [
      "Sys.time";
      "Unix.gettimeofday";
      "Hashtbl.hash";
      "Hashtbl.seeded_hash";
      "Random.self_init";
      "Random.State.make_self_init";
    ]
    path

let r1_random path = path_prefix_matches [ "Random." ] path

let r1_seeded_state path =
  path_prefix_matches [ "Random.State." ] path
  && not (path_matches [ "Random.State.make_self_init" ] path)

(* ---- R2: hash-order iteration ---- *)

let r2_forbidden path = path_matches [ "Hashtbl.iter"; "Hashtbl.fold" ] path

let sort_sink path =
  path_matches
    [
      "List.sort";
      "List.stable_sort";
      "List.fast_sort";
      "List.sort_uniq";
      "Array.sort";
      "Array.stable_sort";
      "Array.fast_sort";
    ]
    path

(* ---- R3: polymorphic comparison ---- *)

let r3_comparator path = path_matches [ "compare"; "min"; "max" ] path
let r3_equality path = path_matches [ "="; "<>" ] path

(* Scalar instantiations where the polymorphic primitives are
   deterministic and unsurprising.  Everything else — type variables,
   tuples, records, constructors, lists, arrays, abstract types — is
   flagged. *)
let safe_scalar (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) ->
      List.exists (Path.same p)
        [
          Predef.path_int;
          Predef.path_float;
          Predef.path_string;
          Predef.path_char;
          Predef.path_bool;
          Predef.path_unit;
          Predef.path_int32;
          Predef.path_int64;
          Predef.path_nativeint;
        ]
  | _ -> false

(* Structural compositions of safe scalars (lists, options, arrays and
   tuples thereof) compare element-wise and deterministically, so the
   polymorphic primitives are fine there too.  Anything nominal —
   records, variants, abstract types — or polymorphic stays flagged:
   that is where representation leaks into ordering. *)
let rec safe_structure (ty : Types.type_expr) =
  safe_scalar ty
  ||
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) ->
      List.exists (Path.same p)
        [ Predef.path_list; Predef.path_option; Predef.path_array ]
      && List.for_all safe_structure args
  | Types.Ttuple tys -> List.for_all safe_structure tys
  | _ -> false

(* ---- R4: partial accessors ---- *)

let r4_forbidden path =
  path_matches [ "List.hd"; "List.nth"; "Option.get"; "Hashtbl.find" ] path

(* ---- R5: stdout hygiene ---- *)

let r5_forbidden path =
  path_matches
    [
      "print_endline";
      "print_string";
      "print_newline";
      "print_int";
      "print_float";
      "print_char";
      "print_bytes";
      "Printf.printf";
      "Format.printf";
      "Format.print_string";
      "Format.print_newline";
    ]
    path

(* ---- R6: certification taint ---- *)

(* The producer zone: lib/lp *is* the solver, so building solutions and
   calling Revised.solve there is its job; its exports are classified
   here instead.  Everywhere else these calls mint taint. *)
let r6_producer_zone path = zone_of_path path = Lib_lp

let r6_producer path =
  path_matches [ "Revised.solve"; "Dense_simplex.solve"; "Model.solve" ] path

(* The certified chain.  A value returned by any of these carries a
   certificate (or a refusal) by construction — PR 3's fallback chain,
   PR 7's guarantee ladder and PR 8's repair controller all bottom out
   here. *)
let r6_sanitizer path =
  path_matches
    [
      "Model.solve_certified";
      "Model.solve_dense_certified";
      "Certify.certify_optimal";
      "Certify.certify_feasible";
      "Certify.certify_infeasible";
      "Certify.certify_unbounded";
      "Robust_plan.solve";
      "Robust_plan.plan_with_guarantee";
      "Lp_lf.plan";
      "Lp_no_lf.plan";
      "Lp_proof.plan";
      "Ship_lp.plan_by_colsum";
      "Subset_planner.plan";
      "Repair.surgery";
      "Repair.observe";
      "Repair.create";
    ]
    path

(* Dissemination / serving sinks: a tainted argument reaching any of
   these is the invariant violation R6 exists for. *)
let r6_sink path =
  path_matches
    [
      "Replan.create";
      "Replan.consider";
      "Replan.force";
      "Simnet_exec.collect";
      "Simnet_exec.proof_collect";
      "Simnet_exec.exact";
      "Simnet_protocols.naive_one";
    ]
    path

(* Record types that denote an LP solution; a record literal of one of
   these outside lib/lp is a hand-built solution and mints taint. *)
let r6_solution_type_names = [ "Revised.result"; "Model.solution" ]

(* Record types whose construction is itself a sink (field values must
   be certified): the serving layer's response. *)
let r6_sink_type_names = [ "Server.response" ]

let type_name_matches names (p : Path.t) =
  let comps = normalize_components p in
  let full = String.concat "." comps in
  let last2 =
    match List.rev comps with
    | v :: m :: _ -> m ^ "." ^ v
    | _ -> full
  in
  List.exists (fun n -> String.equal n full || String.equal n last2) names

(* Is a record of type [p], built in [path], a serving-response sink?
   Inside the defining module the type's path is a bare [Pident]
   ("response"), so the registry's module-qualified entries are also
   matched against the defining file. *)
let r6_sink_record ~path (p : Path.t) =
  type_name_matches r6_sink_type_names p
  || String.equal path "lib/serve/server.ml"
     && String.equal (String.concat "." (normalize_components p)) "response"

(* ---- R7: domain safety ---- *)

let r7_spawn path = path_matches [ "Domain.spawn" ] path

(* Audited fan-out regions: (file, enclosing top-level binding).  The
   only sanctioned spawn site is PR 9's coordinator-sequential solve
   fan-out, audited by test/serve's bit-identical 1/2/8-domain replay
   suite.  New entries must cite equivalent replay evidence in
   DESIGN.md. *)
let r7_spawn_allowlist = [ ("lib/serve/server.ml", "run_tasks") ]

let r7_spawn_allowed ~path ~toplevel =
  List.exists
    (fun (f, b) -> String.equal f path && String.equal b toplevel)
    r7_spawn_allowlist

let r7_atomic_type_path p = path_matches [ "Atomic.t" ] p

(* Nominally mutable types: capturing one of these (outside an atomic
   wrapper) in a spawned closure is a shared-mutation hazard.  Matching
   is nominal — abbreviations are not expanded (no typing environment is
   reconstructed) — which is exactly as strong as the registry. *)
let r7_mutable_type_path p =
  let name = String.concat "." (normalize_components p) in
  List.exists (String.equal name)
    [
      "ref";
      "array";
      "bytes";
      "Hashtbl.t";
      "Buffer.t";
      "Queue.t";
      "Stack.t";
    ]

let rec r7_type_class (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) ->
      if r7_atomic_type_path p then `Atomic
      else if r7_mutable_type_path p then `Mutable
      else if List.exists (fun a -> r7_type_class a = `Mutable) args then
        (* e.g. [int ref option], [float array list] *)
        `Mutable
      else `Immutable
  | Types.Ttuple tys ->
      if List.exists (fun a -> r7_type_class a = `Mutable) tys then `Mutable
      else `Immutable
  | _ -> `Immutable

(* ---- per-zone rule configuration ---- *)

(* Which rules apply to a file, given its repo-relative path.  test/ and
   examples/ are covered since the typed engine landed: R5 is a
   lib-hygiene rule and stays off there; R4 stays scoped to planner
   paths; R6/R7 guard production dissemination/serving code, so tests
   (which hand-build plans on purpose) are exempt. *)
let active_for path rule_id =
  let zone = zone_of_path path in
  match rule_id with
  | "R1" -> not (zone = Lib_obs || zone = Bench)
  | "R2" | "R3" -> true
  | "R4" -> zone = Lib_core || zone = Lib_lp
  | "R5" -> in_lib path
  | "R6" | "R7" -> zone <> Test
  | _ -> true

(* R1 refinement: in test/, explicitly seeded Random.State is accepted
   (property tests drive QCheck with pinned states). *)
let r1_seeded_state_ok path = zone_of_path path = Test
