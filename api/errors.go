package api

import (
	"fmt"
	"net/http"
)

// ErrorCode is the stable machine-readable classification every /v1
// error carries. The set is append-only: codes are never renamed or
// reused, so a client may switch on them across releases.
type ErrorCode string

// The error code set.
const (
	// CodeInvalidArgument rejects a malformed request: bad JSON, unknown
	// fields, out-of-range parameters, oversized bodies. HTTP 400.
	CodeInvalidArgument ErrorCode = "invalid_argument"
	// CodeNotFound marks a lookup of an id or name the farm does not
	// know. HTTP 404.
	CodeNotFound ErrorCode = "not_found"
	// CodeConflict marks a request that is well-formed but illegal in the
	// subject's current lifecycle state (e.g. submitting types twice).
	// HTTP 409.
	CodeConflict ErrorCode = "conflict"
	// CodePoolSaturated signals farm backpressure: the worker queue is
	// full. The request had no effect (a rejected type submission rolls
	// back); back off and retry. HTTP 503.
	CodePoolSaturated ErrorCode = "pool_saturated"
	// CodeNotReady marks a daemon that is not (or no longer) accepting
	// traffic: booting store recovery or draining for shutdown. HTTP 503.
	CodeNotReady ErrorCode = "not_ready"
	// CodeInternal is an unexpected server fault (e.g. a recovered
	// panic). HTTP 500.
	CodeInternal ErrorCode = "internal"
	// CodePlacementInfeasible rejects a placement no fleet could serve:
	// an unknown strategy, an out-of-range n or t, or a contradictory
	// pinned-peer list. HTTP 400.
	CodePlacementInfeasible ErrorCode = "placement_infeasible"
	// CodeFleetUnderFloor rejects a placement the fleet cannot serve
	// right now: fewer healthy daemons than the requested minimum, or a
	// strict placement whose t-daemon fault budget is unattainable.
	// Transient — retry once the fleet recovers. HTTP 503.
	CodeFleetUnderFloor ErrorCode = "fleet_under_floor"
)

// ErrorCodes lists every defined code.
func ErrorCodes() []ErrorCode {
	return []ErrorCode{
		CodeInvalidArgument, CodeNotFound, CodeConflict,
		CodePoolSaturated, CodeNotReady, CodeInternal,
		CodePlacementInfeasible, CodeFleetUnderFloor,
	}
}

// HTTPStatus maps an error code to its HTTP status. Unknown codes map to
// 500: a client that receives a code this package does not know treats
// it as a server fault, never as success.
func (c ErrorCode) HTTPStatus() int {
	switch c {
	case CodeInvalidArgument, CodePlacementInfeasible:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeConflict:
		return http.StatusConflict
	case CodePoolSaturated, CodeNotReady, CodeFleetUnderFloor:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// Retryable reports whether a request failing with this code may succeed
// verbatim later (backpressure, readiness, and fleet health are
// transient; the rest are client or server bugs).
func (c ErrorCode) Retryable() bool {
	return c == CodePoolSaturated || c == CodeNotReady || c == CodeFleetUnderFloor
}

// Error is the structured error body: a stable Code, a human-oriented
// Message, and optional structured Details. It implements the error
// interface so servers and clients can pass it around natively.
type Error struct {
	Code    ErrorCode         `json:"code"`
	Message string            `json:"message"`
	Details map[string]string `json:"details,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Errorf builds an Error from a format string.
func Errorf(code ErrorCode, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// WithDetail returns the error with one detail key set (the receiver is
// modified and returned for chaining).
func (e *Error) WithDetail(key, value string) *Error {
	if e.Details == nil {
		e.Details = make(map[string]string, 1)
	}
	e.Details[key] = value
	return e
}

// ErrorEnvelope is every non-2xx response body: {"error": {code,
// message, details}}.
type ErrorEnvelope struct {
	Error *Error `json:"error"`
}
