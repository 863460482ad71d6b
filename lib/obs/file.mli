(** Whole-file reading for every loader that parses a file at once
    (campaign specs, stores and goldens, bench reports, lint input). *)

val read : string -> (string, string) result
(** The file's bytes, or the system's message ([Sys_error]) when it
    cannot be opened or read. *)
