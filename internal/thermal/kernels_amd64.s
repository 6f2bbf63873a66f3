#include "textflag.h"

// The AVX dense kernels (kernels_amd64.go). Each accumulator lane
// performs exactly the scalar Go kernel's operations: a VMULPD with
// the Go code's first factor first, then a VADDPD with the accumulator
// as the first addend, both rounded to binary64. No fused multiply-add
// and no AVX-512: `make fma-check` rejects a fused mnemonic here.

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  none
	XORL CX, CX
	XGETBV               // XCR0: the OS saves xmm (bit 1) and ymm (bit 2)
	ANDL $6, AX
	CMPL AX, $6
	JNE  none
	MOVB $1, ret+0(FP)
	RET

none:
	MOVB $0, ret+0(FP)
	RET

// func matmulTile4(t *[4][4]float64, x *float64, panel *[4]float64, n int)
TEXT ·matmulTile4(SB), NOSPLIT, $0-32
	MOVQ t+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ panel+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ CX, R8
	SHLQ $3, R8             // row stride in bytes
	LEAQ (SI)(R8*1), R9     // x row 1
	LEAQ (SI)(R8*2), R10    // x row 2
	LEAQ (R9)(R8*2), R11    // x row 3
	VXORPD Y0, Y0, Y0       // row r of the tile accumulates in Yr, from +0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX             // k in bytes

tile:
	VMOVUPD      (DX), Y4   // panel[k]
	VBROADCASTSD (SI)(AX*1), Y5
	VBROADCASTSD (R9)(AX*1), Y6
	VBROADCASTSD (R10)(AX*1), Y7
	VBROADCASTSD (R11)(AX*1), Y8
	VMULPD       Y4, Y5, Y5 // x[r][k]·panel[k]
	VMULPD       Y4, Y6, Y6
	VMULPD       Y4, Y7, Y7
	VMULPD       Y4, Y8, Y8
	VADDPD       Y5, Y0, Y0 // acc + product
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $32, DX
	ADDQ         $8, AX
	DECQ         CX
	JNZ          tile

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func matvecLanes4(s *[4][4]float64, a *float64, t *float64, n int, m int)
TEXT ·matvecLanes4(SB), NOSPLIT, $0-40
	MOVQ s+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ t+16(FP), DX
	MOVQ n+24(FP), R8
	MOVQ m+32(FP), CX
	SHLQ $3, R8             // row stride in bytes
	SHLQ $3, CX             // m in bytes
	LEAQ (SI)(R8*1), R9     // a row 1
	LEAQ (SI)(R8*2), R10    // a row 2
	LEAQ (R9)(R8*2), R11    // a row 3
	VXORPD Y0, Y0, Y0       // row r's chains s0..s3 are the lanes of Yr, from +0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX             // j in bytes

lanes:
	VMOVUPD (DX)(AX*1), Y4  // t[j:j+4]
	VMOVUPD (SI)(AX*1), Y5
	VMOVUPD (R9)(AX*1), Y6
	VMOVUPD (R10)(AX*1), Y7
	VMOVUPD (R11)(AX*1), Y8
	VMULPD  Y4, Y5, Y5      // a[r][j:j+4]·t[j:j+4]
	VMULPD  Y4, Y6, Y6
	VMULPD  Y4, Y7, Y7
	VMULPD  Y4, Y8, Y8
	VADDPD  Y5, Y0, Y0      // acc + product
	VADDPD  Y6, Y1, Y1
	VADDPD  Y7, Y2, Y2
	VADDPD  Y8, Y3, Y3
	ADDQ    $32, AX
	CMPQ    AX, CX
	JB      lanes

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func axpyLanes(y *float64, x *float64, w float64, m int)
TEXT ·axpyLanes(SB), NOSPLIT, $0-32
	MOVQ         y+0(FP), DI
	MOVQ         x+8(FP), SI
	VBROADCASTSD w+16(FP), Y0
	MOVQ         m+24(FP), CX
	SHLQ         $3, CX     // m in bytes
	XORQ         AX, AX     // i in bytes

axpy:
	VMOVUPD (SI)(AX*1), Y1
	VMULPD  Y0, Y1, Y1      // x[i:i+4]·w
	VMOVUPD (DI)(AX*1), Y2
	VADDPD  Y1, Y2, Y2      // y + product
	VMOVUPD Y2, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JB      axpy

	VZEROUPPER
	RET
