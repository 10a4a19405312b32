(* Layer timing from outside the program: a page store that opens a span
   around each [get], [put] and [lock], and a handle wrapper that opens
   one around each tree operation and each [commit]. Both record only
   under a sampled root (see {!Span}). *)

open Repro_storage
module Tree_intf = Repro_baseline.Tree_intf

let[@inline] timed nm f =
  let s = Span.enter nm in
  match f () with
  | r ->
      Span.leave s;
      r
  | exception e ->
      Span.leave s;
      raise e

module Store (S : Page_store.S) :
  Page_store.S with type key = S.key and type t = S.t = struct
  include S

  let get t p = timed Span.n_get (fun () -> S.get t p)
  let put t p n = timed Span.n_put (fun () -> S.put t p n)
  let lock t p = timed Span.n_lock (fun () -> S.lock t p)
end

module Paged = Store (Tree_intf.Paged_int)
module Sagiv_paged = Repro_core.Sagiv.Make_on_store (Key.Int) (Paged)

(* Sagiv over the timing store, on a tree created by the plain one. *)
let paged_handle (t : (int, Tree_intf.Paged_int.t) Repro_core.Handle.t) =
  Tree_intf.of_ops
    ~commit:(fun () -> Sagiv_paged.commit t)
    ~range:(Sagiv_paged.range t) ~name:"sagiv-disk-timed"
    (module Sagiv_paged)
    t

(* [on_ctx] sees the caller's context on every operation (the server's
   worker context, whose counters the benchmark reads afterwards). *)
let handle ?(on_ctx = fun _ -> ()) (h : Tree_intf.handle) =
  {
    h with
    Tree_intf.search =
      (fun ctx k ->
        on_ctx ctx;
        timed Span.n_search (fun () -> h.search ctx k));
    insert =
      (fun ctx k v ->
        on_ctx ctx;
        timed Span.n_insert (fun () -> h.insert ctx k v));
    delete =
      (fun ctx k ->
        on_ctx ctx;
        timed Span.n_delete (fun () -> h.delete ctx k));
    range =
      Option.map
        (fun f ctx ~lo ~hi ->
          on_ctx ctx;
          timed Span.n_range (fun () -> f ctx ~lo ~hi))
        h.range;
    commit = (fun () -> timed Span.n_commit h.commit);
  }
