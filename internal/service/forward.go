package service

import (
	"thermbal/internal/experiment"
	"thermbal/internal/request"
	"thermbal/internal/sim"
)

// Request is request.Request, for the frozen bench module; delete with the next benchmark change.
type Request = request.Request

// Canonicalize is request.Canonicalize, for the frozen bench module; delete with the next benchmark change.
func Canonicalize(req Request) (Request, experiment.RunConfig, error) {
	return request.Canonicalize(req)
}

// NewRunDoc is request.NewRunDoc, for the frozen bench module; delete with the next benchmark change.
func NewRunDoc(canon Request, res sim.Result) request.RunDoc { return request.NewRunDoc(canon, res) }

// EncodeDoc is request.EncodeDoc, for the frozen bench module; delete with the next benchmark change.
func EncodeDoc(v any) ([]byte, error) { return request.EncodeDoc(v) }

// JournalPinned is request.JournalPinned, for the frozen bench module; delete with the next benchmark change.
func JournalPinned(key string) bool { return request.JournalPinned(key) }
