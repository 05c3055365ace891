package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/kcca"
	"repro/internal/knn"
	"repro/internal/shard"
)

// planStageError tags which stage of the SQL → plan pipeline failed, so
// handlers report parse_error vs plan_error even when the failure surfaces
// through the plan cache or WAL replay. Error() is the underlying message,
// unchanged — replay diagnostics and wire messages stay byte-identical to
// the pre-cache pipeline.
type planStageError struct {
	code string
	err  error
}

func (e *planStageError) Error() string { return e.err.Error() }
func (e *planStageError) Unwrap() error { return e.err }

// apiError maps any error from the prediction stack to a stable wire code,
// using the sentinel errors exported by core/kcca/knn and the shard tier.
// Unknown errors become CodeInternal so new failure modes fail loudly rather
// than being misclassified as caller mistakes. The message is the error's
// own, except for the two admission sentinels, whose wire wording predates
// internal/coalesce and is the API's.
func apiError(err error) *api.Error {
	code := api.CodeInternal
	switch {
	case errors.Is(err, shard.ErrOverloaded):
		return &api.Error{Code: api.CodeOverloaded, Message: "serve: request queue is full"}
	case errors.Is(err, shard.ErrDraining):
		return &api.Error{Code: api.CodeShuttingDown, Message: "serve: daemon is draining"}
	case errors.Is(err, core.ErrNotTrained):
		code = api.CodeNotTrained
	case errors.Is(err, core.ErrDimension), errors.Is(err, knn.ErrDimension):
		code = api.CodeDimension
	case errors.Is(err, core.ErrNoPlan),
		errors.Is(err, core.ErrEmptyRequest),
		errors.Is(err, core.ErrTooFewQueries),
		errors.Is(err, core.ErrEmptyWindow),
		errors.Is(err, kcca.ErrTooFew):
		code = api.CodeBadRequest
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		code = api.CodeTimeout
	}
	return &api.Error{Code: code, Message: err.Error()}
}

// statusFor maps a wire error code to its HTTP status.
func statusFor(code string) int {
	switch code {
	case api.CodeBadRequest, api.CodeParse, api.CodePlan, api.CodeDimension:
		return http.StatusBadRequest
	case api.CodeNotTrained, api.CodeShuttingDown:
		return http.StatusServiceUnavailable
	case api.CodeOverloaded:
		return http.StatusTooManyRequests
	case api.CodeTimeout:
		return http.StatusGatewayTimeout
	case api.CodeMethod:
		return http.StatusMethodNotAllowed
	default:
		return http.StatusInternalServerError
	}
}

// writeError emits the standard error body for its code's status, with a
// drain-aware Retry-After hint:
//
//   - overloaded (429): "1" — a shed queue drains in milliseconds, so
//     well-behaved clients (including pkg/qpredictclient) back off briefly
//     and retry the same daemon.
//   - shutting_down (503): deliberately no Retry-After. The drain is
//     terminal for this process; any hint — short or long — tells clients
//     to aim retries at a dying server. Clients must treat the code as
//     final and redirect traffic (pkg/qpredictclient stops retrying on it).
func writeError(w http.ResponseWriter, code, message string) {
	if code == api.CodeOverloaded {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, statusFor(code), api.ErrorResponse{
		Version: api.Version,
		Error:   api.Error{Code: code, Message: message},
	})
}

// encBuf pairs a reusable buffer with a JSON encoder bound to it, so the
// steady-state response path allocates neither: json.NewEncoder per response
// allocates the encoder, and Marshal-then-Write would double-copy the body.
type encBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	e := &encBuf{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// readPool holds request-body scratch buffers for readBody.
var readPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody slurps the size-capped request body into a pooled buffer and
// hands it to decode, which must copy what it keeps (json.Unmarshal and
// api.DecodePredictRequest do): the buffer goes back to the pool.
func readBody(w http.ResponseWriter, r *http.Request, maxBody int64, decode func([]byte) error) error {
	buf := readPool.Get().(*bytes.Buffer)
	defer readPool.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
		return err
	}
	return decode(buf.Bytes())
}

// writeBody emits an encoded response body with the right headers. Every
// body is sent with its Content-Length: net/http sets one by itself only on a
// body that fits its 2 KiB write buffer, and sends a larger one (any batch
// predict) chunk-encoded, in more writes.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// writeJSON emits any response body but a predict result (writePredict's),
// encoding into a pooled buffer so the path does not allocate per response.
// Bytes on the wire are identical to encoding straight into the
// ResponseWriter.
func writeJSON(w http.ResponseWriter, status int, body any) {
	e := encPool.Get().(*encBuf)
	defer encPool.Put(e)
	e.buf.Reset()
	if err := e.enc.Encode(body); err != nil {
		// encoding/json refused a NaN or ±Inf in one of our own wire types.
		// The report is the envelope of every other failure (it holds only
		// strings, so this cannot recurse further), never half a body or a
		// bare text/plain 500.
		writeError(w, api.CodeInternal, "encoding response: "+err.Error())
		return
	}
	writeBody(w, status, e.buf.Bytes())
}
