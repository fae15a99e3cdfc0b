// Package record is the decision flight recorder: a fixed-capacity
// ring (plus an optional JSONL write-ahead log) that captures, per
// engine event, everything needed to replay the coalition's
// authorisation decisions offline — the determinism oracle behind
// core.Replay and the input stream behind core.ShadowDiff.
//
// # Record schema
//
// A recorded stream is a sequence of Record values, one JSON object
// per line in the WAL form. Every record carries:
//
//   - schema: the schema version of the record (SchemaVersion).
//   - seq: a per-recorder monotone sequence number starting at 1.
//     Replays process records in seq order.
//   - kind: one of "arrive", "activate", "deactivate", "grant",
//     "decide".
//   - time: the engine clock reading (seconds) when the event was
//     recorded.
//   - policy: the SHA-256 digest of the policy loaded in the engine
//     (core.PolicyDigest), stamped by a recorder of replay inputs so a
//     replay can detect that it is running a different policy than the
//     one that produced the stream. Decisions-only records, which
//     cannot be replayed, carry none.
//   - hlc: the event's hybrid logical timestamp (internal/hlc wire
//     form), the coalition-wide causal order /debug/journal followers
//     and `stacctl timeline` merge by. Optional — replay ignores it
//     (seq and time fully determine a local replay), so it is not a
//     schema bump; pre-HLC streams simply lack it. On decide records
//     the hlc equals the decision's own stamp (the one returned on
//     the wire reply), so a journal event can be correlated with what
//     the requesting agent observed. Note seq order and hlc order can
//     disagree by adjacent events under concurrent load: the stamp is
//     taken in the decision path, the seq under the recorder lock, and
//     the two are not atomic. Cross-member merges sort by hlc, which
//     is the order that carries causal meaning.
//
// The event kinds mirror the engine's replay-relevant surface:
//
//   - "arrive" (ObjectArrived): object + server. Resets per-server
//     temporal base times.
//   - "activate"/"deactivate" (ActivatePermissions /
//     DeactivatePermissions): object, user and the session's active
//     roles. These open and close the temporal validity accumulation
//     of Section 4, so replays must reproduce them at the recorded
//     times to reproduce budget-exhaustion verdicts.
//   - "grant" (RecordGrant, in every engine): an access the server
//     actually executed, its proof issued. This is not implied by a
//     granted decide: a server may still refuse an engine-granted
//     access for non-policy reasons (unknown resource). Replay
//     decides from decide records alone and skips grant records.
//   - "decide" (Engine.LogDecision, once per served decision): the
//     complete replayable input — subject (user + active roles), the
//     requested "op resource @ server" access, the proof-backed
//     history with a per-entry proven bit (the oracle's verdict at
//     decision time) and the declared SRAL program text — plus the
//     full outcome: verdict, covering permission, deny reason,
//     spatial/program/temporal statuses, decision and trace IDs, the
//     denial explanation (JSON), the covering permission's temporal
//     budget snapshot (consumed vs dur(perm) and base-time scheme),
//     and the served outcome: served_reason when the server refused
//     an engine grant, and the shadow policy's verdict.
//
// # Decision log
//
// Every coalition keeps a recorder: its ring is the coalition
// decision log behind Audit, Explain and the /debug/journal tail, and
// its WAL (`stacd -record-wal`) is the log's one durable file, which
// `stacctl explain -wal`, replay and diff read. By default it records
// decide records only, without their replay inputs
// (Config.DecisionsOnly: no arrive, activate, deactivate or grant
// records, and no user, roles, history or program on decides).
// `stacd -record` adds the inputs, which is what core.Replay and
// core.ShadowDiff need; `-record-wal` implies it.
//
// # History delta encoding (schema 2)
//
// Schema 1 wrote the complete proof-backed history into every decide
// record, making a WAL O(N²) in bytes over an N-access tour. Since
// schema 2 the history is delta-encoded per object: history_base
// names how many leading entries are shared with the object's
// previous decide record's (reconstructed) history, and the record's
// own history field carries only the suffix beyond that. Replay
// reconstructs the full history per object as it walks the stream.
// The engine falls back to a full re-record (history_base 0) whenever
// the carried history is not an extension of what it last recorded —
// a time-sorted ledger merge reordering entries, a proven bit
// flipping, or a history shrinking after a session swap. Schema 1
// streams read unchanged: their records always have history_base 0.
//
// The declared SRAL program is interned the same way: an agent
// declares one program for its whole itinerary, so the program text
// is written only on the first decide (per object) and whenever it
// structurally changes; in between, decide records carry
// program_cached instead and replay resolves the object's previous
// inline program. A record with neither field declared no program.
// Schema 1 streams always inline the program.
//
// # Versioning rules
//
// SchemaVersion is bumped whenever a field changes meaning or a new
// field is required to replay correctly. Decode accepts any schema
// in [1, SchemaVersion] (older records may lack newer optional
// fields; replay treats them as zero) and rejects records with a
// NEWER schema than it understands — forward compatibility is the
// reader's job to refuse, not to guess. Unknown JSON fields are
// ignored on decode, so adding optional fields is not a schema bump.
// Dropping one is not either: schema 2 decide records written while
// the engine had an incremental counting mode may carry
// "incremental":true, which now decodes as an unknown field and
// replays on the engine's one evaluation path.
//
// # Fidelity caveats
//
// Replay is exact under a simulated clock when the recorder captured
// inputs from before any traffic: every verdict, deny reason and
// explanation reproduces bit-for-bit. A decide record's time is the
// clock reading its decision used, so budget arithmetic replays at
// the same instant under a real clock too. One source of divergence
// is inherent and documented rather than hidden: a recorder attached
// mid-flight misses the activation history that seeded the temporal
// budgets, so consumed-budget state starts from the first recorded
// event.
//
// # Journal tailing
//
// RecordsSince(cursor) is the resumable read underneath the
// DebugServer's /debug/journal tail: it returns the retained records
// with seq beyond the cursor, plus how many records between the
// cursor and the oldest retained one were already evicted from the
// ring (the gap a resuming follower must acknowledge). Tails poll —
// they never block Append and never slow the decision path.
//
// # WAL degradation
//
// The WAL's durability contract:
//
//   - Each record is one JSON line handed to the WAL in one Write —
//     one write(2) on the *os.File stacd opens with O_APPEND — under
//     the recorder's lock, so the file's line order is the ring's
//     seq order, whichever servers decided concurrently.
//   - There is no fsync: a record survives a crash of the process
//     once its Write returns, but not a crash of the host before the
//     kernel writes it back.
//   - ReadAll and Scan drop a torn final line (one with no trailing
//     newline that fails to decode), the trace of a process killed
//     mid-append; any other malformed line is an error naming its
//     line number.
//   - OpenWAL, which stacd opens the file with, ends such a tail
//     before the first append: it truncates a fragment away and
//     terminates a whole record. A daemon restarted after a full disk
//     or a kill therefore appends on a line of its own, and the
//     fragment never becomes a malformed line mid-file.
//   - The first write failure (disk full, closed file) is sticky: the
//     recorder stops writing the WAL, increments
//     stac_recorder_errors_total and reports WALDegraded in Status,
//     and the daemon's /readyz fails its decision_wal check until a
//     new recorder is attached. Every decision after the failure is
//     missing from the file.
//
// Authorisations are never failed or slowed by a broken WAL, and the
// in-memory ring keeps recording.
package record
