// Batch request decoding and response encoding, shared by the sacd and
// saccoord jobs:batch handlers. A warm batch repeats cells the daemon has
// seen before, so both ends are built to cost O(1) per job: request items
// resolve through a memo keyed on their bytes, and results are spliced into
// the response as the raw bytes they already are.
package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/client"
)

// requestMemoCap bounds one generation of a RequestMemo; two generations
// live at most, so a memo holds at most 2×requestMemoCap requests.
// requestMemoMaxItem is the largest item, in bytes, a memo keeps (a
// request with an explicit configuration is well under 1 KiB).
const (
	requestMemoCap     = 2048
	requestMemoMaxItem = 4 << 10
)

// BatchJob is one decoded jobs:batch item: the request as sent and, when it
// validated, its resolved identity. Err is the item's validation error.
type BatchJob struct {
	Req client.JobRequest
	Job ResolvedJob
	Err error
}

// RequestMemo decodes jobs:batch bodies and remembers, per distinct item,
// the decoded request and its resolution, so a repeated cell costs one map
// lookup instead of a reflective decode, a catalog lookup and a key hash.
// Only successful resolutions are kept; invalid items are decoded and
// resolved afresh every time, so their errors read exactly as before. The
// memo is bounded: when the current generation fills, it becomes the
// previous one and the one before is dropped; a hit in the previous
// generation moves forward. Entries are shared between jobs and must be
// treated as read-only. Safe for concurrent use.
type RequestMemo struct {
	defaultFidelity string

	mu        sync.Mutex
	cur, prev map[string]*memoEntry
}

type memoEntry struct {
	req client.JobRequest
	job ResolvedJob
}

// NewRequestMemo returns an empty memo resolving requests that name no rung
// to defaultFidelity ("" = exact).
func NewRequestMemo(defaultFidelity string) *RequestMemo {
	return &RequestMemo{defaultFidelity: defaultFidelity, cur: make(map[string]*memoEntry)}
}

func (m *RequestMemo) lookupLocked(item []byte) *memoEntry {
	if e, ok := m.cur[string(item)]; ok {
		return e
	}
	if e, ok := m.prev[string(item)]; ok {
		m.storeLocked(string(item), e)
		return e
	}
	return nil
}

func (m *RequestMemo) storeLocked(key string, e *memoEntry) {
	if len(m.cur) >= requestMemoCap {
		m.prev, m.cur = m.cur, make(map[string]*memoEntry, requestMemoCap)
	}
	m.cur[key] = e
}

// DecodeBatch reads one jobs:batch body and resolves its items. For a body
// that is not a valid batch it returns the error that decoding the body
// into a client.BatchRequest gives. Items are returned in request order; a
// batch SubmitBatch rejects on its size alone (empty, or over
// client.MaxBatch) comes back unresolved.
func (m *RequestMemo) DecodeBatch(r io.Reader) ([]BatchJob, error) {
	// Nothing returned refers to the body's bytes (decoding and the memo's
	// keys copy them), so its buffer goes back to the pool.
	buf := getBuf()
	defer putBuf(buf)
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	body := buf.Bytes()
	items, ok := splitBatch(body)
	if !ok {
		return m.decodeSlow(body)
	}
	out := make([]BatchJob, len(items))
	if len(items) == 0 || len(items) > client.MaxBatch {
		return out, nil
	}
	var miss []int
	m.mu.Lock()
	for i, item := range items {
		if e := m.lookupLocked(item); e != nil {
			out[i].Req, out[i].Job = e.req, e.job
		} else {
			miss = append(miss, i)
		}
	}
	m.mu.Unlock()
	if len(miss) == 0 {
		return out, nil
	}
	for _, i := range miss {
		if json.Unmarshal(items[i], &out[i].Req) != nil {
			// An item of the wrong shape: the whole-body decoder words
			// the error the way the API always has.
			return m.decodeSlow(body)
		}
		out[i].Job, out[i].Err = ResolveRequest(out[i].Req, m.defaultFidelity)
	}
	m.mu.Lock()
	for _, i := range miss {
		if out[i].Err == nil && len(items[i]) <= requestMemoMaxItem {
			m.storeLocked(string(items[i]), &memoEntry{req: out[i].Req, job: out[i].Job})
		}
	}
	m.mu.Unlock()
	return out, nil
}

// decodeSlow is the reference path: one typed decode of the whole body,
// then one resolve per item, no memo. DecodeBatch falls back to it for
// every body its fast path does not take, so malformed bodies fail with
// exactly the errors they always did.
func (m *RequestMemo) decodeSlow(body []byte) ([]BatchJob, error) {
	var breq client.BatchRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&breq); err != nil {
		return nil, err
	}
	out := make([]BatchJob, len(breq.Jobs))
	if len(out) == 0 || len(out) > client.MaxBatch {
		return out, nil
	}
	for i, req := range breq.Jobs {
		out[i].Req = req
		out[i].Job, out[i].Err = ResolveRequest(req, m.defaultFidelity)
	}
	return out, nil
}

// splitBatch returns the items of a batch body's "jobs" array as subslices
// of body, without decoding them. ok is false for every body it leaves to
// decodeSlow: invalid JSON, a top level that is not an object, a key with
// escapes or non-ASCII bytes (encoding/json matches those to "jobs" by
// Unicode case folding), "jobs" named twice (the typed decoder merges the
// second array into the first, item by item), or a "jobs" value that is
// neither an array nor null.
func splitBatch(body []byte) (items [][]byte, ok bool) {
	if !json.Valid(body) {
		return nil, false
	}
	// From here on body is one valid JSON value, so the walk only has to
	// find token boundaries, never to check them.
	i := skipSpace(body, 0)
	if body[i] != '{' {
		return nil, false
	}
	var jobs []byte
	for i = skipSpace(body, i+1); body[i] == '"'; {
		end := skipString(body, i)
		key := body[i+1 : end-1]
		i = skipSpace(body, end)
		i = skipSpace(body, i+1) // the colon
		end = skipValue(body, i)
		for _, c := range key {
			if c == '\\' || c >= 0x80 {
				return nil, false
			}
		}
		if len(key) == 4 && strings.EqualFold(string(key), "jobs") {
			if jobs != nil {
				return nil, false
			}
			jobs = body[i:end]
		}
		if i = skipSpace(body, end); body[i] == ',' {
			i = skipSpace(body, i+1)
		}
	}
	switch {
	case jobs == nil || string(jobs) == "null":
		return nil, true
	case jobs[0] != '[':
		return nil, false
	}
	for i = skipSpace(jobs, 1); jobs[i] != ']'; {
		end := skipValue(jobs, i)
		items = append(items, jobs[i:end])
		if i = skipSpace(jobs, end); jobs[i] == ',' {
			i = skipSpace(jobs, i+1)
		}
	}
	return items, true
}

// skipSpace returns the index of the first non-whitespace byte at or after
// i (len(b) if none).
func skipSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// skipString returns the index just past the valid JSON string at b[i].
func skipString(b []byte, i int) int {
	for j := i + 1; ; {
		q := j + bytes.IndexByte(b[j:], '"')
		n := 0 // backslashes right before the quote: odd means escaped
		for p := q - 1; b[p] == '\\'; p-- {
			n++
		}
		if n%2 == 0 {
			return q + 1
		}
		j = q + 1
	}
}

// skipValue returns the index just past the valid JSON value at b[i].
func skipValue(b []byte, i int) int {
	switch b[i] {
	case '"':
		return skipString(b, i)
	case '{', '[':
		depth := 0
		for {
			switch b[i] {
			case '"':
				i = skipString(b, i)
				continue
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
			i++
		}
	}
	for i < len(b) { // a number or a literal
		switch b[i] {
		case ',', '}', ']', ' ', '\t', '\n', '\r':
			return i
		}
		i++
	}
	return i
}

// ReadBatch reads one POST /v1/jobs:batch request: the body through m, the
// X-Sacd-Timeout-Ms header, which applies to every item that names no
// timeout of its own (as it does for a single submit), and the ?results=1
// flag. A malformed body or header is answered here with a 400, and ok is
// false.
func (m *RequestMemo) ReadBatch(w http.ResponseWriter, r *http.Request) (jobs []BatchJob, results, ok bool) {
	jobs, err := m.DecodeBatch(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return nil, false, false
	}
	if v := r.Header.Get(client.TimeoutHeader); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms <= 0 {
			writeError(w, http.StatusBadRequest, "invalid %s header %q", client.TimeoutHeader, v)
			return nil, false, false
		}
		for i := range jobs {
			if jobs[i].Req.TimeoutMS == 0 {
				jobs[i].Req.TimeoutMS = ms
			}
		}
	}
	q := r.URL.Query()
	results = q.Get("results") == "1" || q.Get("results") == "true"
	return jobs, results, true
}

// WriteBatch answers a jobs:batch submission: a 400 naming each invalid
// item when itemErrs is set, else a 202 carrying every status.
func WriteBatch(w http.ResponseWriter, sts []client.JobStatus, itemErrs []string) {
	if itemErrs != nil {
		writeJSON(w, http.StatusBadRequest, batchErrorResponse(itemErrs))
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	enc := json.NewEncoder(buf)
	buf.WriteString(`{"jobs":[`)
	for i := range sts {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(`{"status":`)
		if err := appendStatus(buf, enc, &sts[i]); err != nil {
			resp := client.BatchResponse{Jobs: make([]client.BatchItem, len(sts))}
			for i := range sts {
				resp.Jobs[i].Status = &sts[i]
			}
			writeJSON(w, http.StatusAccepted, resp)
			return
		}
		buf.WriteByte('}')
	}
	buf.WriteString("]}\n")
	writeBody(w, http.StatusAccepted, buf.Bytes())
}

// writeWatch answers a jobs:watch long-poll with resp.
func writeWatch(w http.ResponseWriter, resp client.WatchResponse) {
	buf := getBuf()
	defer putBuf(buf)
	enc := json.NewEncoder(buf)
	err := func() error {
		if resp.Jobs == nil {
			buf.WriteString(`{"jobs":null`)
		} else {
			buf.WriteString(`{"jobs":[`)
			for i := range resp.Jobs {
				if i > 0 {
					buf.WriteByte(',')
				}
				if err := appendStatus(buf, enc, &resp.Jobs[i]); err != nil {
					return err
				}
			}
			buf.WriteByte(']')
		}
		if len(resp.Unknown) > 0 {
			buf.WriteString(`,"unknown":`)
			if err := enc.Encode(resp.Unknown); err != nil {
				return err
			}
			buf.Truncate(buf.Len() - 1) // the Encoder's newline
		}
		buf.WriteString("}\n")
		return nil
	}()
	if err != nil {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	writeBody(w, http.StatusOK, buf.Bytes())
}

// appendStatus appends st to buf exactly as encoding/json encodes it. A
// result is not re-encoded: st is encoded without it and its bytes are
// spliced in as the last field, which is where JobStatus declares Result.
// The bytes are canonical json.Marshal output (verified against their
// SHA-256 by the store, relayed untouched by the coordinator), which
// encoding/json would copy through unchanged. enc writes to buf.
func appendStatus(buf *bytes.Buffer, enc *json.Encoder, st *client.JobStatus) error {
	raw := st.Result
	st.Result = nil
	err := enc.Encode(st)
	st.Result = raw
	if err != nil {
		return err
	}
	buf.Truncate(buf.Len() - 1) // the Encoder's newline
	if len(raw) > 0 {
		buf.Truncate(buf.Len() - 1) // the closing brace
		buf.WriteString(`,"result":`)
		buf.Write(raw)
		buf.WriteByte('}')
	}
	return nil
}

// writeBody writes a JSON body built in memory, in one Write like the
// Encoder path.
func writeBody(w http.ResponseWriter, code int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(b)
}

// bufPool recycles request and response buffers; ones grown past
// maxPooledBuf (a MaxBatch response with large results) are left to the
// collector.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 4 << 20

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

func putBuf(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuf {
		return
	}
	b.Reset()
	bufPool.Put(b)
}
