#include "textflag.h"

// AVX2 forms of the kernels in kernels.go. A lane of a vector register holds
// one of the sums (or elements) the portable loops keep apart; no instruction
// here adds across lanes, and every multiply-add is a VMULPD followed by a
// VADDPD/VSUBPD — never an FMA — so each lane rounds twice, exactly where the
// portable loop does. The exception is expNegScaledAVX2, whose portable loop
// is math.Exp: it fuses exactly where math.Exp's own assembly does. Loads and stores are unaligned (VMOVUPD): operands are
// slices of larger matrices and start wherever the caller's indices fall.
// Every routine ends in VZEROUPPER, so the SSE code the Go compiler emits
// around the call pays no state-transition penalty.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func tmulvecAVX2(out, m, v *float64, rows, stride, cols int)
//
// Column blocks of 32 (eight accumulators), then at most one of 16 (four).
// Within a block the rows go by in order: broadcast v[i], multiply it into
// the row's 32 entries, add to the accumulators. A v[i] of either zero is
// skipped — its bit pattern shifted left by one is zero exactly then, which a
// NaN's never is.
TEXT ·tmulvecAVX2(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ rows+24(FP), R8
	MOVQ stride+32(FP), R9
	MOVQ cols+40(FP), R10
	SHLQ $3, R9 // row stride in bytes

tmul32:
	CMPQ   R10, $32
	JLT    tmul16
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   SI, AX // &m[i][block]
	MOVQ   DX, BX // &v[i]
	MOVQ   R8, CX // rows left

tmul32row:
	MOVQ         (BX), R11
	SHLQ         $1, R11
	JZ           tmul32next
	VBROADCASTSD (BX), Y8
	VMULPD       (AX), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(AX), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       64(AX), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       96(AX), Y8, Y12
	VADDPD       Y12, Y3, Y3
	VMULPD       128(AX), Y8, Y9
	VADDPD       Y9, Y4, Y4
	VMULPD       160(AX), Y8, Y10
	VADDPD       Y10, Y5, Y5
	VMULPD       192(AX), Y8, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       224(AX), Y8, Y12
	VADDPD       Y12, Y7, Y7

tmul32next:
	ADDQ    R9, AX
	ADDQ    $8, BX
	DECQ    CX
	JNZ     tmul32row
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, SI
	SUBQ    $32, R10
	JMP     tmul32

tmul16:
	CMPQ   R10, $16
	JLT    tmuldone
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, AX
	MOVQ   DX, BX
	MOVQ   R8, CX

tmul16row:
	MOVQ         (BX), R11
	SHLQ         $1, R11
	JZ           tmul16next
	VBROADCASTSD (BX), Y8
	VMULPD       (AX), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(AX), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       64(AX), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       96(AX), Y8, Y12
	VADDPD       Y12, Y3, Y3

tmul16next:
	ADDQ    R9, AX
	ADDQ    $8, BX
	DECQ    CX
	JNZ     tmul16row
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)

tmuldone:
	VZEROUPPER
	RET

// func sqDistColsAVX2(out, t, q *float64, rows, stride, cols int)
//
// Sixteen columns — four accumulators — per pass over q: broadcast q[j],
// subtract it from row j's sixteen entries, square, add.
TEXT ·sqDistColsAVX2(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ t+8(FP), SI
	MOVQ q+16(FP), DX
	MOVQ rows+24(FP), R8
	MOVQ stride+32(FP), R9
	MOVQ cols+40(FP), R10
	SHLQ $3, R9

sqd16:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, AX // &t[j][block]
	MOVQ   DX, BX // &q[j]
	MOVQ   R8, CX // rows left

sqd16row:
	VBROADCASTSD (BX), Y4
	VMOVUPD      (AX), Y5
	VMOVUPD      32(AX), Y6
	VMOVUPD      64(AX), Y7
	VMOVUPD      96(AX), Y8
	VSUBPD       Y4, Y5, Y5
	VSUBPD       Y4, Y6, Y6
	VSUBPD       Y4, Y7, Y7
	VSUBPD       Y4, Y8, Y8
	VMULPD       Y5, Y5, Y5
	VMULPD       Y6, Y6, Y6
	VMULPD       Y7, Y7, Y7
	VMULPD       Y8, Y8, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         R9, AX
	ADDQ         $8, BX
	DECQ         CX
	JNZ          sqd16row
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, 64(DI)
	VMOVUPD      Y3, 96(DI)
	ADDQ         $128, DI
	ADDQ         $128, SI
	SUBQ         $16, R10
	JNZ          sqd16
	VZEROUPPER
	RET

// func rotateAVX2(lo, hi *float64, n int, c, s float64)
//
// hi ← s·lo + c·hi, lo ← c·lo − s·hi, four elements per instruction.
TEXT ·rotateAVX2(SB), NOSPLIT, $0-40
	MOVQ         lo+0(FP), DI
	MOVQ         hi+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD c+24(FP), Y6
	VBROADCASTSD s+32(FP), Y7

rot4:
	VMOVUPD (DI), Y0     // x
	VMOVUPD (SI), Y1     // h
	VMULPD  Y0, Y7, Y2   // s·x
	VMULPD  Y1, Y6, Y3   // c·h
	VADDPD  Y3, Y2, Y2
	VMULPD  Y0, Y6, Y4   // c·x
	VMULPD  Y1, Y7, Y5   // s·h
	VSUBPD  Y5, Y4, Y4
	VMOVUPD Y2, (SI)
	VMOVUPD Y4, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JNZ     rot4
	VZEROUPPER
	RET

// func subScaledAVX2(t, d *float64, n int, a float64)
//
// t ← t − a·d.
TEXT ·subScaledAVX2(SB), NOSPLIT, $0-32
	MOVQ         t+0(FP), DI
	MOVQ         d+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD a+24(FP), Y7

subs4:
	VMULPD  (SI), Y7, Y1 // a·d
	VMOVUPD (DI), Y0
	VSUBPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JNZ     subs4
	VZEROUPPER
	RET

// func subRank2AVX2(t, e, d *float64, n int, a, b float64)
//
// t ← t − (a·e + b·d).
TEXT ·subRank2AVX2(SB), NOSPLIT, $0-48
	MOVQ         t+0(FP), DI
	MOVQ         e+8(FP), SI
	MOVQ         d+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD a+32(FP), Y6
	VBROADCASTSD b+40(FP), Y7

subr4:
	VMULPD  (SI), Y6, Y1 // a·e
	VMULPD  (DX), Y7, Y2 // b·d
	VADDPD  Y2, Y1, Y1
	VMOVUPD (DI), Y0
	VSUBPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JNZ     subr4
	VZEROUPPER
	RET

// func sweepAVX2(v *float64, stride int, cs *float64, rots int)
//
// Row rots of the 16-column strip starts in Y0–Y3. Each rotation loads the
// row below it (x), stores the rotated upper row, s·x + c·h, and keeps the
// rotated lower row, c·x − s·h, in Y0–Y3 as the next rotation's upper row h;
// the last one is stored into row 0. The four vectors of a row alternate
// between two sets of temporaries.
TEXT ·sweepAVX2(SB), NOSPLIT, $0-32
	MOVQ    v+0(FP), DI
	MOVQ    stride+8(FP), R9
	MOVQ    cs+16(FP), SI
	MOVQ    rots+24(FP), CX
	SHLQ    $3, R9        // row stride in bytes
	MOVQ    CX, AX
	IMULQ   R9, AX
	ADDQ    AX, DI        // &row rots
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3

sweeprot:
	VBROADCASTSD (SI), Y4  // c
	VBROADCASTSD 8(SI), Y5 // s
	MOVQ         DI, DX    // upper row
	SUBQ         R9, DI    // lower row
	VMOVUPD      (DI), Y6  // x
	VMULPD       Y6, Y5, Y7
	VMULPD       Y0, Y4, Y8
	VADDPD       Y8, Y7, Y7
	VMOVUPD      Y7, (DX)
	VMULPD       Y6, Y4, Y9
	VMULPD       Y0, Y5, Y10
	VSUBPD       Y10, Y9, Y0
	VMOVUPD      32(DI), Y11
	VMULPD       Y11, Y5, Y12
	VMULPD       Y1, Y4, Y13
	VADDPD       Y13, Y12, Y12
	VMOVUPD      Y12, 32(DX)
	VMULPD       Y11, Y4, Y14
	VMULPD       Y1, Y5, Y15
	VSUBPD       Y15, Y14, Y1
	VMOVUPD      64(DI), Y6
	VMULPD       Y6, Y5, Y7
	VMULPD       Y2, Y4, Y8
	VADDPD       Y8, Y7, Y7
	VMOVUPD      Y7, 64(DX)
	VMULPD       Y6, Y4, Y9
	VMULPD       Y2, Y5, Y10
	VSUBPD       Y10, Y9, Y2
	VMOVUPD      96(DI), Y11
	VMULPD       Y11, Y5, Y12
	VMULPD       Y3, Y4, Y13
	VADDPD       Y13, Y12, Y12
	VMOVUPD      Y12, 96(DX)
	VMULPD       Y11, Y4, Y14
	VMULPD       Y3, Y5, Y15
	VSUBPD       Y15, Y14, Y3
	ADDQ         $16, SI
	DECQ         CX
	JNZ          sweeprot
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, 64(DI)
	VMOVUPD      Y3, 96(DI)
	VZEROUPPER
	RET

// func subOuterAVX2(b, gv, d *float64, rows int)
//
// gv's 16 entries stay in Y0–Y3; row k of b loses d[k]·gv.
TEXT ·subOuterAVX2(SB), NOSPLIT, $0-32
	MOVQ    b+0(FP), DI
	MOVQ    gv+8(FP), SI
	MOVQ    d+16(FP), DX
	MOVQ    rows+24(FP), CX
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3

outer16:
	VBROADCASTSD (DX), Y4
	VMULPD       Y0, Y4, Y5
	VMOVUPD      (DI), Y6
	VSUBPD       Y5, Y6, Y6
	VMOVUPD      Y6, (DI)
	VMULPD       Y1, Y4, Y7
	VMOVUPD      32(DI), Y8
	VSUBPD       Y7, Y8, Y8
	VMOVUPD      Y8, 32(DI)
	VMULPD       Y2, Y4, Y9
	VMOVUPD      64(DI), Y10
	VSUBPD       Y9, Y10, Y10
	VMOVUPD      Y10, 64(DI)
	VMULPD       Y3, Y4, Y11
	VMOVUPD      96(DI), Y12
	VSUBPD       Y11, Y12, Y12
	VMOVUPD      Y12, 96(DI)
	ADDQ         $128, DI
	ADDQ         $8, DX
	DECQ         CX
	JNZ          outer16
	VZEROUPPER
	RET

// func addScaledAVX2(y, x *float64, n int, a float64)
//
// y ← y + a·x.
TEXT ·addScaledAVX2(SB), NOSPLIT, $0-32
	MOVQ         y+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD a+24(FP), Y7

adds4:
	VMULPD  (SI), Y7, Y1 // a·x
	VMOVUPD (DI), Y0
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JNZ     adds4
	VZEROUPPER
	RET

// func symvAVX2(t *float64, stride int, d, e *float64, n int, fb, acc *float64)
//
// Four entries k per pass. Rows 0–3 of the block (SI, stride R8 bytes) and
// rows 4–7 (DI) are loaded four entries wide; e[k..k+3] takes their
// products with f one row after another (fb: f[l] four times, l = 0..7).
// For g the four rows of each half are transposed, two VPERM2F128 and two
// VUNPCK per pair of entries, into one vector per entry k — lanes l = 0–3 in
// Y0, 4–7 in Y1 — and added in entry order, each times a broadcast d[k].
TEXT ·symvAVX2(SB), NOSPLIT, $0-56
	MOVQ    t+0(FP), SI
	MOVQ    stride+8(FP), R8
	MOVQ    d+16(FP), DX
	MOVQ    e+24(FP), BX
	MOVQ    n+32(FP), CX
	MOVQ    fb+40(FP), R10
	MOVQ    acc+48(FP), R11
	SHLQ    $3, R8         // row stride in bytes
	LEAQ    (R8)(R8*2), R9 // three rows
	LEAQ    (SI)(R8*4), DI // row 4
	VMOVUPD (R11), Y0
	VMOVUPD 32(R11), Y1

symv4:
	VBROADCASTSD (DX), Y2
	VBROADCASTSD 8(DX), Y3
	VBROADCASTSD 16(DX), Y4
	VBROADCASTSD 24(DX), Y5
	VMOVUPD      (BX), Y6

	// Rows 0–3.
	VMOVUPD    (SI), Y7
	VMULPD     (R10), Y7, Y8
	VADDPD     Y8, Y6, Y6
	VMOVUPD    (SI)(R8*1), Y9
	VMULPD     32(R10), Y9, Y8
	VADDPD     Y8, Y6, Y6
	VMOVUPD    (SI)(R8*2), Y10
	VMULPD     64(R10), Y10, Y8
	VADDPD     Y8, Y6, Y6
	VMOVUPD    (SI)(R9*1), Y11
	VMULPD     96(R10), Y11, Y8
	VADDPD     Y8, Y6, Y6
	VPERM2F128 $0x20, Y10, Y7, Y12 // r0[k], r0[k+1] | r2[k], r2[k+1]
	VPERM2F128 $0x20, Y11, Y9, Y13 // r1 … | r3 …
	VPERM2F128 $0x31, Y10, Y7, Y7  // r0[k+2], r0[k+3] | r2[k+2], r2[k+3]
	VPERM2F128 $0x31, Y11, Y9, Y9  // r1 … | r3 …
	VUNPCKLPD  Y13, Y12, Y10       // rows 0–3 at k
	VUNPCKHPD  Y13, Y12, Y11       // … at k+1
	VUNPCKLPD  Y9, Y7, Y12         // … at k+2
	VUNPCKHPD  Y9, Y7, Y13         // … at k+3
	VMULPD     Y2, Y10, Y10
	VADDPD     Y10, Y0, Y0
	VMULPD     Y3, Y11, Y11
	VADDPD     Y11, Y0, Y0
	VMULPD     Y4, Y12, Y12
	VADDPD     Y12, Y0, Y0
	VMULPD     Y5, Y13, Y13
	VADDPD     Y13, Y0, Y0

	// Rows 4–7.
	VMOVUPD    (DI), Y7
	VMULPD     128(R10), Y7, Y8
	VADDPD     Y8, Y6, Y6
	VMOVUPD    (DI)(R8*1), Y9
	VMULPD     160(R10), Y9, Y8
	VADDPD     Y8, Y6, Y6
	VMOVUPD    (DI)(R8*2), Y10
	VMULPD     192(R10), Y10, Y8
	VADDPD     Y8, Y6, Y6
	VMOVUPD    (DI)(R9*1), Y11
	VMULPD     224(R10), Y11, Y8
	VADDPD     Y8, Y6, Y6
	VMOVUPD    Y6, (BX)
	VPERM2F128 $0x20, Y10, Y7, Y12
	VPERM2F128 $0x20, Y11, Y9, Y13
	VPERM2F128 $0x31, Y10, Y7, Y7
	VPERM2F128 $0x31, Y11, Y9, Y9
	VUNPCKLPD  Y13, Y12, Y10
	VUNPCKHPD  Y13, Y12, Y11
	VUNPCKLPD  Y9, Y7, Y12
	VUNPCKHPD  Y9, Y7, Y13
	VMULPD     Y2, Y10, Y10
	VADDPD     Y10, Y1, Y1
	VMULPD     Y3, Y11, Y11
	VADDPD     Y11, Y1, Y1
	VMULPD     Y4, Y12, Y12
	VADDPD     Y12, Y1, Y1
	VMULPD     Y5, Y13, Y13
	VADDPD     Y13, Y1, Y1

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, DX
	ADDQ $32, BX
	SUBQ $4, CX
	JNZ  symv4
	VMOVUPD Y0, (R11)
	VMOVUPD Y1, 32(R11)
	VZEROUPPER
	RET

// The constants of expNegScaledAVX2, four lanes wide so that every
// instruction can take them from memory: the values math.archExp
// (src/math/exp_amd64.s) uses, written the same way.
#define FOUR(off, v) \
	DATA expconst<>+(off)(SB)/8, v; \
	DATA expconst<>+(off+8)(SB)/8, v; \
	DATA expconst<>+(off+16)(SB)/8, v; \
	DATA expconst<>+(off+24)(SB)/8, v

FOUR(0, $0x8000000000000000)                                     // sign bit
FOUR(32, $1.4426950408889634073599246810018920)                  // log2(e)
FOUR(64, $0.69314718055966295651160180568695068359375)           // upper half of ln 2
FOUR(96, $0.28235290563031577122588448175013436025525412068e-12) // lower half of ln 2
FOUR(128, $0.0625)
FOUR(160, $2.4801587301587301587e-5) // 1/8!
FOUR(192, $1.9841269841269841270e-4) // 1/7!
FOUR(224, $1.3888888888888888889e-3) // 1/6!
FOUR(256, $8.3333333333333333333e-3) // 1/5!
FOUR(288, $4.1666666666666666667e-2) // 1/4!
FOUR(320, $1.6666666666666666667e-1) // 1/3!
FOUR(352, $0.5)
FOUR(384, $1.0)
FOUR(416, $2.0)
DATA expconst<>+448(SB)/8, $0x000003ff000003ff // 1023, four int32 lanes
DATA expconst<>+456(SB)/8, $0x000003ff000003ff
DATA expconst<>+464(SB)/8, $0x000007ff000007ff // 2047
DATA expconst<>+472(SB)/8, $0x000007ff000007ff
FOUR(480, $-1075.5) // x·log2(e) at or below it: k + 1023 < −52, archExp's +0
GLOBL expconst<>(SB), RODATA|NOPTR, $512

// func expNegScaledAVX2(out, d *float64, n int, tau float64) (done int)
//
// out[i] = math.Exp(−d[i]/τ) for four i at a time: the FMA branch of
// math.archExp, instruction for instruction, one lane per element. Each
// group's k + 1023 (the biased exponent of the 2^k scale) is checked before
// anything is stored. A lane archExp answers +0 from its underflow branch
// (x·log2(e) ≤ −1075.5, so k + 1023 < −52; −Inf too) is set to +0. Any other
// lane outside [1, 2046] — the ones archExp sends to its NaN, +Inf, overflow
// and denormal branches — stops the loop before its group, and done says how
// many elements were written.
TEXT ·expNegScaledAVX2(SB), NOSPLIT, $0-40
	MOVQ         out+0(FP), DI
	MOVQ         d+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD tau+24(FP), Y15
	VMOVDQU      expconst<>+448(SB), X13 // 1023
	VMOVDQU      expconst<>+464(SB), X12 // 2047
	VPXOR        X11, X11, X11
	XORQ         AX, AX

exp4:
	CMPQ         AX, CX
	JEQ          expdone
	VMOVUPD      (SI)(AX*8), Y0
	VXORPD       expconst<>+0(SB), Y0, Y0     // −d
	VDIVPD       Y15, Y0, Y0                  // x = −d/τ
	VMULPD       expconst<>+32(SB), Y0, Y1    // x·log2(e)
	VCMPPD       $0x12, expconst<>+480(SB), Y1, Y5 // lanes that underflow to +0
	VCVTPD2DQY   Y1, X2                       // k, rounded to nearest
	VCVTDQ2PD    X2, Y1
	VPADDD       X13, X2, X2                  // k + 1023
	VPCMPGTD     X11, X2, X3                  // k + 1023 ≥ 1
	VPCMPGTD     X2, X12, X4                  // k + 1023 ≤ 2046
	VPAND        X4, X3, X3
	VMOVMSKPS    X3, BX
	VMOVMSKPD    Y5, DX
	ORL          DX, BX
	CMPL         BX, $15
	JNE          expdone
	VFNMADD231PD expconst<>+64(SB), Y1, Y0    // x − k·ln2 (upper)
	VFNMADD231PD expconst<>+96(SB), Y1, Y0    // − k·ln2 (lower)
	VMULPD       expconst<>+128(SB), Y0, Y0   // r = (x − k·ln2)/16
	VMOVUPD      expconst<>+160(SB), Y1       // Taylor series in r, Horner
	VFMADD213PD  expconst<>+192(SB), Y0, Y1
	VFMADD213PD  expconst<>+224(SB), Y0, Y1
	VFMADD213PD  expconst<>+256(SB), Y0, Y1
	VFMADD213PD  expconst<>+288(SB), Y0, Y1
	VFMADD213PD  expconst<>+320(SB), Y0, Y1
	VFMADD213PD  expconst<>+352(SB), Y0, Y1
	VFMADD213PD  expconst<>+384(SB), Y0, Y1
	VMULPD       Y1, Y0, Y0                   // e^r − 1
	VADDPD       expconst<>+416(SB), Y0, Y1   // four doublings of r: y ← y·(y + 2)
	VMULPD       Y1, Y0, Y0
	VADDPD       expconst<>+416(SB), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       expconst<>+416(SB), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       expconst<>+416(SB), Y0, Y1
	VFMADD213PD  expconst<>+384(SB), Y1, Y0   // the last one fused with the + 1
	VPMOVZXDQ    X2, Y2
	VPSLLQ       $52, Y2, Y2                  // 2^k
	VMULPD       Y2, Y0, Y0
	VANDNPD      Y0, Y5, Y0                   // +0 in the underflowing lanes
	VMOVUPD      Y0, (DI)(AX*8)
	ADDQ         $4, AX
	JMP          exp4

expdone:
	MOVQ       AX, done+32(FP)
	VZEROUPPER
	RET
