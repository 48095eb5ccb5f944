package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"spice/internal/workloads/native"
)

// FuzzDecodeJob drives the wire protocol's front half — decodeJob, then
// normalize, as both doors run them — with arbitrary request bodies.
// Neither may panic; a refusal answers 400 or 413; an accepted request
// lies inside the server's bounds and survives re-encoding: marshalled,
// decoded and normalized again, it is the same request.
func FuzzDecodeJob(f *testing.F) {
	for _, seed := range []string{
		`{"tenant":"t","kernel":"sumlist","size":100}`,
		`{"tenant":"a-b.c_9","kernel":"hostile","size":20000,"seed":7,"churn":3,"invocations":8}` + "\n",
		`{"TENANT":"t","Kernel":"sumlist","seed":-1}`,
		`{"tenant":"t","kernel":"nope"}`,
		`{"tenant":"t","kernel":"sumlist","invocation":8}`,
		`{"tenant":"t","kernel":"sumlist"} {"tenant":"u"}`,
		`{"tenant":"t","kernel":"sumlist","size":-1}`,
		`{"tenant":"t","kernel":"sumlist","size":1e3}`,
		`null`, `[]`, `{`, ``,
	} {
		f.Add([]byte(seed))
	}
	decodeNormalized := func(body []byte, req *JobRequest) *apiError {
		r := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
		if aerr := decodeJob(httptest.NewRecorder(), r, req); aerr != nil {
			return aerr
		}
		return req.normalize()
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req JobRequest
		if aerr := decodeNormalized(body, &req); aerr != nil {
			if aerr.code != http.StatusBadRequest && aerr.code != http.StatusRequestEntityTooLarge {
				t.Fatalf("refused with %d (%s), want 400 or 413", aerr.code, aerr.msg)
			}
			return
		}
		if req.Tenant == "" || len(req.Tenant) > 64 || native.ByName(req.Kernel) == nil ||
			req.Size < 1 || req.Size > maxListSize || req.Seed == 0 ||
			req.Churn < 0 || req.Churn > maxListSize ||
			req.Invocations < 1 || req.Invocations > maxInvocations {
			t.Fatalf("accepted outside the bounds: %+v", req)
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var again JobRequest
		if aerr := decodeNormalized(enc, &again); aerr != nil || again != req {
			t.Fatalf("accepted %+v; re-encoded as %s it decodes to %+v, %v", req, enc, again, aerr)
		}
	})
}
