package srv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/store"
)

// journalLine marshals one record the way the daemon writes it.
func journalLine(t *testing.T, rec journalRecord) string {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// waitDone polls a retained job until it reaches a terminal state.
func waitDone(t *testing.T, s *Server, id string) *job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j := s.lookup(id)
		if j == nil {
			t.Fatalf("job %s not retained", id)
		}
		st, _, _, _, _ := j.snapshot()
		if st == stateDone || st == stateFailed {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

// TestJournalReplayCompletesUnfinishedJobs is the in-process half of the
// crash contract (cmd/socd's exec test covers the SIGKILL half): a
// journal holding admitted-but-unfinished jobs is replayed at startup,
// the jobs finish under their ORIGINAL ids, and the journal is compacted.
func TestJournalReplayCompletesUnfinishedJobs(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")

	lintReq, _ := json.Marshal(lintRequest{Bench: tinyBench})
	atpgReq, _ := json.Marshal(atpgRequest{Bench: tinyBench})
	var buf strings.Builder
	// j1 finished in the previous life: must NOT rerun.
	buf.WriteString(journalLine(t, journalRecord{V: 1, Op: opAdmit, Job: "j1", Seq: 1, Kind: "lint", Req: lintReq}))
	buf.WriteString(journalLine(t, journalRecord{V: 1, Op: opStart, Job: "j1", Seq: 1, Kind: "lint"}))
	buf.WriteString(journalLine(t, journalRecord{V: 1, Op: opDone, Job: "j1", Seq: 1, Kind: "lint", OK: true}))
	// j2 was queued, j3 was mid-run when the daemon died: both pending.
	buf.WriteString(journalLine(t, journalRecord{V: 1, Op: opAdmit, Job: "j2", Seq: 2, Kind: "lint", Client: "key:a", Req: lintReq}))
	buf.WriteString(journalLine(t, journalRecord{V: 1, Op: opAdmit, Job: "j3", Seq: 3, Kind: "atpg", Client: "key:b", Req: atpgReq}))
	buf.WriteString(journalLine(t, journalRecord{V: 1, Op: opStart, Job: "j3", Seq: 3, Kind: "atpg"}))
	if err := os.WriteFile(jpath, []byte(buf.String()), 0o666); err != nil {
		t.Fatal(err)
	}

	s, reg := newTestServer(t, Config{Workers: 2, JournalPath: jpath})
	j2 := waitDone(t, s, "j2")
	j3 := waitDone(t, s, "j3")
	for _, j := range []*job{j2, j3} {
		st, result, jerr, _, _ := j.snapshot()
		if st != stateDone || jerr != nil {
			t.Fatalf("replayed %s: state=%v err=%v", j.id, st, jerr)
		}
		if len(result) == 0 {
			t.Fatalf("replayed %s produced no bytes", j.id)
		}
	}
	if s.lookup("j1") != nil {
		t.Error("finished job j1 was replayed")
	}
	if got := reg.Counter("srv.journal.replayed").Value(); got != 2 {
		t.Errorf("srv.journal.replayed = %d, want 2", got)
	}

	// A replayed result must be byte-identical to a fresh computation of
	// the same request — the client that re-polls across the crash sees
	// exactly what an uninterrupted run would have returned.
	fresh := post(t, s.Handler(), "/v1/lint", fmt.Sprintf(`{"bench":%q,"nocache":true}`, tinyBench))
	if fresh.Code != http.StatusOK {
		t.Fatalf("fresh lint = %d", fresh.Code)
	}
	_, replayed, _, _, _ := j2.snapshot()
	if string(replayed) != fresh.Body.String() {
		t.Errorf("replayed bytes differ from fresh computation:\n%s\nvs\n%s", replayed, fresh.Body)
	}
}

// TestJournalNewIDsDoNotCollide: after replay, freshly submitted jobs get
// ids beyond the journal's max seq.
func TestJournalNewIDsDoNotCollide(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")
	lintReq, _ := json.Marshal(lintRequest{Bench: tinyBench})
	rec := journalLine(t, journalRecord{V: 1, Op: opAdmit, Job: "j7", Seq: 7, Kind: "lint", Req: lintReq})
	if err := os.WriteFile(jpath, []byte(rec), 0o666); err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Config{Workers: 1, JournalPath: jpath})
	waitDone(t, s, "j7")
	j, _, err := s.submit(work{kind: "lint", key: "", run: func(ctx context.Context, col *obs.Collector) ([]byte, error) {
		return []byte("ok\n"), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if j.id != "j8" {
		t.Errorf("post-replay id = %s, want j8", j.id)
	}
	<-j.done
}

// TestJournalReplayEdgeCases: a torn final line, an unknown record
// version, and an unknown job kind each degrade to a counter — the valid
// pending job still replays, the junk is compacted away, and nothing
// panics.
func TestJournalReplayEdgeCases(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")
	lintReq, _ := json.Marshal(lintRequest{Bench: tinyBench})
	var buf strings.Builder
	buf.WriteString(journalLine(t, journalRecord{V: 2, Op: opAdmit, Job: "j1", Seq: 1, Kind: "lint", Req: lintReq}))
	buf.WriteString(journalLine(t, journalRecord{V: 1, Op: opAdmit, Job: "j2", Seq: 2, Kind: "frobnicate", Req: lintReq}))
	buf.WriteString(journalLine(t, journalRecord{V: 1, Op: opAdmit, Job: "j3", Seq: 3, Kind: "lint", Req: lintReq}))
	// A crash mid-append leaves a torn final line.
	buf.WriteString(`{"v":1,"op":"admit","job":"j4","seq":4,"ki`)
	if err := os.WriteFile(jpath, []byte(buf.String()), 0o666); err != nil {
		t.Fatal(err)
	}

	s, reg := newTestServer(t, Config{Workers: 1, JournalPath: jpath})
	waitDone(t, s, "j3")
	for name, want := range map[string]int64{
		"srv.journal.malformed":       1,
		"srv.journal.skipped_version": 1,
		"srv.journal.unsupported":     1,
		"srv.journal.replayed":        1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// Compaction rewrote the journal as just the replayable admission (the
	// daemon then appends start/done for it as it runs).
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "frobnicate") || strings.Contains(string(data), `"j4"`) {
		t.Errorf("compacted journal still holds junk: %s", data)
	}
}

// TestJournalReplaySkipsEq2Violation: a journaled tdv admission whose
// tmono violates Eq. 2, or whose profile overflows the TDV terms (both
// written before admission checked them), is skipped and counted at
// replay — never run into the engine's panic or a wrapped report — while
// the valid admission next to them still replays.
func TestJournalReplaySkipsEq2Violation(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")
	low := 1
	badReq, _ := json.Marshal(tdvRequest{Builtin: "d695", TMono: &low})
	wrapReq, _ := json.Marshal(tdvRequest{SOC: overflowSOC})
	goodReq, _ := json.Marshal(tdvRequest{Builtin: "d695"})
	var buf strings.Builder
	buf.WriteString(journalLine(t, journalRecord{V: 1, Op: opAdmit, Job: "j1", Seq: 1, Kind: "tdv", Req: badReq}))
	buf.WriteString(journalLine(t, journalRecord{V: 1, Op: opAdmit, Job: "j2", Seq: 2, Kind: "tdv", Req: goodReq}))
	buf.WriteString(journalLine(t, journalRecord{V: 1, Op: opAdmit, Job: "j3", Seq: 3, Kind: "tdv", Req: wrapReq}))
	if err := os.WriteFile(jpath, []byte(buf.String()), 0o666); err != nil {
		t.Fatal(err)
	}
	s, reg := newTestServer(t, Config{Workers: 1, JournalPath: jpath})
	if st, _, _, _, _ := waitDone(t, s, "j2").snapshot(); st != stateDone {
		t.Fatalf("valid replayed job ended %v", st)
	}
	if s.lookup("j1") != nil {
		t.Error("Eq. 2-violating admission was replayed")
	}
	if s.lookup("j3") != nil {
		t.Error("out-of-range admission was replayed")
	}
	for name, want := range map[string]int64{
		"srv.journal.unsupported": 2,
		"srv.journal.replayed":    1,
		"srv.jobs.failed":         0,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestJournalAppendFailureIsCountedNotFatal: an armed journal-append
// failpoint (a dying disk) must not fail the admission it was recording.
func TestJournalAppendFailureIsCountedNotFatal(t *testing.T) {
	defer runctl.DisarmAll()
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	s, reg := newTestServer(t, Config{Workers: 1, JournalPath: jpath})
	h := s.Handler()

	runctl.Arm(runctl.FPJournalAppend, 1, errors.New("injected disk death"))
	rec := post(t, h, "/v1/lint", fmt.Sprintf(`{"bench":%q}`, tinyBench))
	if rec.Code != http.StatusOK {
		t.Fatalf("lint with dead journal = %d %s", rec.Code, rec.Body)
	}
	if got := reg.Counter("srv.journal.errors").Value(); got == 0 {
		t.Error("srv.journal.errors not incremented")
	}
}

// TestAdmitFailpointReturns503WithRetryAfter: the srv.admit failpoint
// surfaces exactly like real backpressure — a 503 carrying Retry-After.
func TestAdmitFailpointReturns503WithRetryAfter(t *testing.T) {
	defer runctl.DisarmAll()
	s, _ := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	runctl.Arm(FPAdmit, 1, errors.New("chaos-injected failure at srv.admit"))
	rec := post(t, h, "/v1/lint", fmt.Sprintf(`{"bench":%q}`, tinyBench))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("armed admit = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}
	var body struct {
		RetryAfterSec int `json:"retry_after_sec"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.RetryAfterSec < 1 {
		t.Errorf("retry_after_sec = %d (err %v), want >= 1", body.RetryAfterSec, err)
	}

	// One-shot: the next submission sails through.
	rec = post(t, h, "/v1/lint", fmt.Sprintf(`{"bench":%q}`, tinyBench))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-failpoint lint = %d", rec.Code)
	}
}

// TestDebugFailpointEndpoint: gated off by default, arming works when on.
func TestDebugFailpointEndpoint(t *testing.T) {
	defer runctl.DisarmAll()
	plain, _ := newTestServer(t, Config{Workers: 1})
	if rec := post(t, plain.Handler(), "/debug/failpoints", `{"name":"srv.admit"}`); rec.Code != http.StatusNotFound {
		t.Fatalf("debug endpoint without Debug = %d, want 404", rec.Code)
	}

	s, _ := newTestServer(t, Config{Workers: 1, Debug: true})
	h := s.Handler()
	if rec := post(t, h, "/debug/failpoints", `{"name":"srv.admit","mode":"error"}`); rec.Code != http.StatusOK {
		t.Fatalf("arm = %d %s", rec.Code, rec.Body)
	}
	if rec := post(t, h, "/v1/lint", fmt.Sprintf(`{"bench":%q}`, tinyBench)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("armed lint = %d, want 503", rec.Code)
	}
	if rec := post(t, h, "/debug/failpoints", `{"mode":"disarm-all"}`); rec.Code != http.StatusOK {
		t.Fatalf("disarm-all = %d", rec.Code)
	}
	if rec := post(t, h, "/v1/lint", fmt.Sprintf(`{"bench":%q}`, tinyBench)); rec.Code != http.StatusOK {
		t.Fatalf("post-disarm lint = %d", rec.Code)
	}
}

// TestWorkerFailpointPanicFailsOnlyThatJob: an armed worker panic is
// recovered into the job's error; the worker survives for the next job.
func TestWorkerFailpointPanicFailsOnlyThatJob(t *testing.T) {
	defer runctl.DisarmAll()
	s, _ := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	runctl.ArmPanic(FPWorker, 1, "chaos-injected panic at srv.worker")
	rec := post(t, h, "/v1/lint", fmt.Sprintf(`{"bench":%q,"nocache":true}`, tinyBench))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicked job = %d %s, want 500", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "panic") {
		t.Errorf("error body lacks panic marker: %s", rec.Body)
	}
	rec = post(t, h, "/v1/lint", fmt.Sprintf(`{"bench":%q}`, tinyBench))
	if rec.Code != http.StatusOK {
		t.Fatalf("worker did not survive the panic: %d", rec.Code)
	}
}

// TestStoreReadFailpointServedByRecompute: an injected read fault is a
// miss, not an error — the job recomputes and the client still gets 200.
func TestStoreReadFailpointServedByRecompute(t *testing.T) {
	defer runctl.DisarmAll()
	st, err := store.Open(t.TempDir(), 0, obs.New(obs.NewRegistry(), nil))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Config{Workers: 1, Store: st})
	h := s.Handler()
	body := fmt.Sprintf(`{"bench":%q}`, tinyBench)
	cold := post(t, h, "/v1/lint", body)
	if cold.Code != http.StatusOK {
		t.Fatal(cold.Code)
	}
	runctl.Arm(store.FPRead, 1, errors.New("chaos-injected failure at store.read"))
	warm := post(t, h, "/v1/lint", body)
	if warm.Code != http.StatusOK {
		t.Fatalf("read-fault request = %d", warm.Code)
	}
	if warm.Body.String() != cold.Body.String() {
		t.Error("recomputed bytes differ from cold bytes")
	}
}
