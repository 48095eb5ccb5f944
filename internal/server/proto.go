package server

// The spiced wire protocol: JSON job specs naming a registered native
// workload kernel plus parameters, submitted synchronously (POST
// /v1/run blocks until the job finishes) or asynchronously (POST
// /v1/submit returns a job id polled through GET /v1/jobs/{id}).

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"spice/internal/workloads/native"
)

// A request's bounds: its body's size, its structure's node count (and
// churn), and its invocation count.
const (
	// maxRequestBytes bounds a job request's body. A JobRequest is a
	// dozen scalar fields; anything near this size is not one.
	maxRequestBytes = 64 << 10
	maxListSize     = 1_000_000
	maxInvocations  = 10_000
)

// JobRequest is the body of POST /v1/run and POST /v1/submit: exactly
// one JSON object with these fields. A field it does not have, or
// anything after the object, is refused with 400.
type JobRequest struct {
	// Tenant names the submitting tenant; budgets, concurrency caps and
	// metrics are tracked per tenant. Required; [A-Za-z0-9_.-], at most
	// 64 bytes (it becomes a Prometheus label value).
	Tenant string `json:"tenant"`
	// Kernel names a registered native workload kernel (GET /v1/kernels
	// lists them). Required.
	Kernel string `json:"kernel"`
	// Size is the structure's node count (default 10000, capped by the
	// server's MaxListSize).
	Size int64 `json:"size,omitempty"`
	// Seed fixes the structure and churn stream (default 1). Jobs with
	// the same (kernel, size, seed, churn) share one server-side
	// structure instance per tenant, which is what lets the runtime's
	// cross-invocation predictions pay off.
	Seed int64 `json:"seed,omitempty"`
	// Churn scales the kernel's per-invocation mutation count. 0 leaves
	// the structure immutable across the job's invocations, which the
	// server exploits by batching them through one Session.RunBatch
	// call.
	Churn int `json:"churn,omitempty"`
	// Invocations is the number of loop invocations to run (default 1,
	// capped by the server's MaxInvocations).
	Invocations int64 `json:"invocations,omitempty"`
}

// decodeJob reads the one JobRequest that is the request body, refusing
// a body over maxRequestBytes with 413 and anything else with 400: bad
// JSON, a field JobRequest does not have (a misspelt "invocations" must
// not run with the default), or anything after the first value.
func decodeJob(w http.ResponseWriter, r *http.Request, req *JobRequest) *apiError {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(req)
	if err == nil {
		// The body is one value: a second Decode has to find its end
		// (io.EOF, which Decode returns bare).
		if err = dec.Decode(&struct{}{}); err == io.EOF {
			return nil
		} else if err == nil {
			err = errors.New("more than one value in the body")
		}
	}
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return &apiError{code: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf("request body over %d bytes", maxRequestBytes)}
	default:
		return badRequest("bad JSON: " + err.Error())
	}
}

// normalize applies defaults and validates against the request bounds.
func (r *JobRequest) normalize() *apiError {
	if r.Tenant == "" {
		return badRequest("missing tenant")
	}
	if len(r.Tenant) > 64 {
		return badRequest("tenant name longer than 64 bytes")
	}
	for i := 0; i < len(r.Tenant); i++ {
		c := r.Tenant[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '_' || c == '-' || c == '.') {
			return badRequest("tenant name must match [A-Za-z0-9_.-]+")
		}
	}
	if native.ByName(r.Kernel) == nil {
		return badRequest(fmt.Sprintf("unknown kernel %q (have %v)", r.Kernel, native.Names()))
	}
	if r.Size == 0 {
		r.Size = 10_000
	}
	if r.Size < 1 || r.Size > maxListSize {
		return badRequest(fmt.Sprintf("size %d outside [1, %d]", r.Size, maxListSize))
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Churn < 0 || r.Churn > maxListSize {
		return badRequest(fmt.Sprintf("churn %d outside [0, %d]", r.Churn, maxListSize))
	}
	if r.Invocations == 0 {
		r.Invocations = 1
	}
	if r.Invocations < 1 || r.Invocations > maxInvocations {
		return badRequest(fmt.Sprintf("invocations %d outside [1, %d]", r.Invocations, maxInvocations))
	}
	return nil
}

// instanceKey identifies the tenant-side structure instance a request
// runs against: the arguments of the kernel's New. Comparable, so a
// lookup formats and allocates nothing.
type instanceKey struct {
	kernel     string
	size, seed int64
	churn      int
}

func (r *JobRequest) instanceKey() instanceKey {
	return instanceKey{r.Kernel, r.Size, r.Seed, r.Churn}
}

// JobResult is the success body of /v1/run and of a finished async job.
type JobResult struct {
	ID     string `json:"id,omitempty"`
	Tenant string `json:"tenant"`
	Kernel string `json:"kernel"`
	// Result is the final invocation's accumulator.
	Result int64 `json:"result"`
	// Invocations echoes the executed invocation count.
	Invocations int64 `json:"invocations"`
	// Iters is the number of committed loop iterations the job
	// contributed (its Stats delta).
	Iters int64 `json:"iters"`
	// Hits and Misses are the job's speculative-chunk outcomes.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Conflicts counts the job's DOACROSS read/write-set conflict events
	// (zero for DOALL kernels).
	Conflicts int64 `json:"conflicts,omitempty"`
	// Sheds counts the job's invocations executed sequentially in place
	// because the executor was saturated or the traversal too small.
	Sheds int64 `json:"sheds"`
	// Budget is the width the job's session ran at once the job was over
	// (Stats.EffectiveThreads): the pool's width, or 1 once the session's
	// confidence gate has closed every row.
	Budget int `json:"budget"`
	// ElapsedMS is the job's service time (excluding queueing).
	ElapsedMS float64 `json:"elapsed_ms"`
}

// JobStatus is the body of GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"` // "queued", "running" or "done"
	// Result and Error are set once State is "done".
	Result *JobResult `json:"result,omitempty"`
	Error  string     `json:"error,omitempty"`
}

// KernelInfo is one row of GET /v1/kernels.
type KernelInfo struct {
	Name           string `json:"name"`
	Description    string `json:"description"`
	Predictability string `json:"predictability"`
	// DOACROSS marks kernels whose loop bodies carry cross-iteration
	// state through conflict-checked speculative cells and reductions.
	DOACROSS bool `json:"doacross,omitempty"`
}

// apiError is a protocol-level failure: an HTTP status plus a one-line
// message, and for backpressure rejections a Retry-After hint.
type apiError struct {
	code       int
	msg        string
	retryAfter int // seconds; 0 omits the header
}

func (e *apiError) Error() string { return e.msg }

func badRequest(msg string) *apiError { return &apiError{code: http.StatusBadRequest, msg: msg} }

// write emits the error as a JSON body plus Retry-After when set.
func (e *apiError) write(w http.ResponseWriter) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.code)
	json.NewEncoder(w).Encode(map[string]string{"error": e.msg})
}

// writeJSON emits a 2xx JSON body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
