(** One persistent, content-addressed JSON store: the machinery shared
    by the experiment result cache and the verifier's verdict cache.

    An entry is one JSON file [<dir>/<key>.json], where the key is a
    digest over everything the stored value is a function of. A change
    to any input changes the key, so stale entries are never looked up
    again (invalidation by construction; nothing is deleted). Writes go
    to a temp file that is renamed into place, so readers never see a
    half-written entry; a corrupt, truncated or unreadable entry is a
    miss; a failed write is swallowed, because a cache must never fail
    the computation it caches. Every function is safe to call from
    concurrent {!Pool} workers. *)

val dir_of_env : string -> default:string -> string option
(** [dir_of_env var ~default] is the cache directory selected by the
    environment variable [var]: unset, [""] or ["0"] disables the
    cache ([None]), ["1"] selects [default], and any other value is
    the directory itself. *)

val key : string list -> string
(** Hex digest over the parts joined with NUL. *)

val exe_digest : dir:string -> string
(** Hex digest of the running executable. Simulator code, workload
    generators and experiment logic are all compiled in, so this one
    digest stands in for all of them in a key. Hashing a
    multi-megabyte executable costs more than a warm cache lookup, so
    the digest is memoized in [dir/exe.stamp] behind the executable's
    size and mtime: a matching stamp is reused, a stale one is
    re-hashed and rewritten. The digest, not the stamp, enters the
    key, so the store stays content-addressed. *)

val find : dir:string -> string -> Json.t option
(** The parsed entry stored under the key; [None] when it is missing,
    unreadable or not valid JSON. *)

val store : dir:string -> string -> string -> unit
(** [store ~dir key json] writes the JSON text [json] as the entry for
    [key], creating [dir] as needed. Write errors are swallowed. *)
