//===--- workloads/Workloads.cpp - Benchmark workloads --------------------===//

#include "workloads/Workloads.h"

#include "ir/Builder.h"
#include "ir/Verifier.h"
#include "parser/Parser.h"
#include "support/FatalError.h"

using namespace ptran;

//===----------------------------------------------------------------------===//
// LOOPS: the 24 Livermore kernels, structurally faithful reduced ports.
//===----------------------------------------------------------------------===//

static const char LoopsSource[] = R"FTN(
! The 24 Livermore Loops [McM86], ported to the mini language at reduced
! problem size. Loop nesting, recurrences, strides and branch structure
! follow the original kernels.

program loops
  integer nrep
  nrep = 5
  call k1(nrep)
  call k2(nrep)
  call k3(nrep)
  call k4(nrep)
  call k5(nrep)
  call k6(nrep)
  call k7(nrep)
  call k8(nrep)
  call k9(nrep)
  call k10(nrep)
  call k11(nrep)
  call k12(nrep)
  call k13(nrep)
  call k14(nrep)
  call k15(nrep)
  call k16(nrep)
  call k17(nrep)
  call k18(nrep)
  call k19(nrep)
  call k20(nrep)
  call k21(nrep)
  call k22(nrep)
  call k23(nrep)
  call k24(nrep)
end

! Kernel 1 -- hydro fragment
subroutine k1(nrep)
  real x(120), y(120), z(120)
  n = 64
  q = 0.5
  r = 0.25
  t = 0.125
  do 5 k = 1, n + 12
    y(k) = 0.01 * real(k)
    z(k) = 0.02 * real(k)
5 continue
  do 10 irep = 1, nrep
    do 10 k = 1, n
      x(k) = q + y(k) * (r * z(k+10) + t * z(k+11))
10 continue
end

! Kernel 2 -- incomplete Cholesky conjugate gradient excerpt (stride
! halving through an unstructured loop)
subroutine k2(nrep)
  real x(200), v(200)
  n = 64
  do 5 k = 1, n
    x(k) = 0.01 * real(k)
    v(k) = 0.03 * real(k)
5 continue
  do 40 irep = 1, nrep
    ii = n
    ipntp = 0
20  ipnt = ipntp
    ipntp = ipntp + ii
    ii = ii / 2
    i = ipntp
    do 30 k = ipnt + 2, ipntp, 2
      i = i + 1
      x(i) = x(k) - v(k) * x(k-1) - v(k+1) * x(k+1)
30  continue
    if (ii .gt. 1) goto 20
40 continue
end

! Kernel 3 -- inner product
subroutine k3(nrep)
  real x(120), z(120)
  n = 64
  do 5 k = 1, n
    x(k) = 0.01 * real(k)
    z(k) = 0.02 * real(k)
5 continue
  do 10 irep = 1, nrep
    q = 0.0
    do 10 k = 1, n
      q = q + z(k) * x(k)
10 continue
end

! Kernel 4 -- banded linear equations
subroutine k4(nrep)
  real x(120), y(120)
  n = 60
  m = 20
  do 5 k = 1, n + m
    x(k) = 0.01 * real(k)
    y(k) = 0.02 * real(k)
5 continue
  do 10 irep = 1, nrep
    do 10 k = 7, 107, 50
      lw = k - 6
      temp = x(k-1)
      do 8 j = 5, n, 5
        temp = temp - x(lw) * y(j)
        lw = lw + 1
8     continue
      x(k-1) = y(5) * temp
10 continue
end

! Kernel 5 -- tri-diagonal elimination, below diagonal (first-order
! recurrence)
subroutine k5(nrep)
  real x(120), y(120), z(120)
  n = 64
  do 5 k = 1, n
    x(k) = 0.0
    y(k) = 0.01 * real(k)
    z(k) = 0.02 * real(k)
5 continue
  do 10 irep = 1, nrep
    do 10 k = 2, n
      x(k) = z(k) * (y(k) - x(k-1))
10 continue
end

! Kernel 6 -- general linear recurrence equations (triangular inner loop)
subroutine k6(nrep)
  real w(70), b(70, 70)
  n = 32
  do 6 i = 1, n
    w(i) = 0.01 * real(i)
    do 5 j = 1, n
      b(i, j) = 0.001 * real(i + j)
5   continue
6 continue
  do 10 irep = 1, nrep
    do 10 i = 2, n
      do 10 k = 1, i - 1
        w(i) = w(i) + b(i, k) * w(i-k)
10 continue
end

! Kernel 7 -- equation of state fragment (expression heavy)
subroutine k7(nrep)
  real x(140), y(140), z(140), u(140)
  n = 64
  r = 0.5
  t = 0.25
  do 5 k = 1, n + 12
    y(k) = 0.01 * real(k)
    z(k) = 0.02 * real(k)
    u(k) = 0.03 * real(k)
5 continue
  do 10 irep = 1, nrep
    do 10 k = 1, n
      x(k) = u(k) + r * (z(k) + r * y(k))
      x(k) = x(k) + t * (u(k+3) + r * (u(k+2) + r * u(k+1)) + t * (u(k+6) + r * (u(k+5) + r * u(k+4))))
10 continue
end

! Kernel 8 -- ADI integration (2-D sweeps)
subroutine k8(nrep)
  real u1(30, 30), u2(30, 30), u3(30, 30)
  n = 20
  a11 = 0.1
  a12 = 0.2
  do 6 i = 1, n + 2
    do 5 j = 1, n + 2
      u1(i, j) = 0.001 * real(i * j)
      u2(i, j) = 0.002 * real(i + j)
      u3(i, j) = 0.003 * real(i - j)
5   continue
6 continue
  do 10 irep = 1, nrep
    do 10 ky = 2, n
      do 10 kx = 2, n
        du1 = u1(kx, ky+1) - u1(kx, ky-1)
        du2 = u2(kx, ky+1) - u2(kx, ky-1)
        u3(kx, ky) = u3(kx, ky) + a11 * du1 + a12 * du2 + a11 * u1(kx-1, ky) + a12 * u2(kx+1, ky)
10 continue
end

! Kernel 9 -- numerical integration
subroutine k9(nrep)
  real px(30, 70)
  n = 64
  do 6 i = 1, 13
    do 5 j = 1, n
      px(i, j) = 0.001 * real(i * j)
5   continue
6 continue
  do 10 irep = 1, nrep
    do 10 i = 1, n
      px(1, i) = px(5, i) + px(6, i) * px(3, i) + px(7, i) * px(4, i) + px(8, i) * px(2, i)
10 continue
end

! Kernel 10 -- numerical differentiation
subroutine k10(nrep)
  real px(30, 70), cx(30, 70)
  n = 64
  do 6 i = 1, 13
    do 5 j = 1, n
      px(i, j) = 0.001 * real(i * j)
      cx(i, j) = 0.002 * real(i + j)
5   continue
6 continue
  do 10 irep = 1, nrep
    do 10 i = 1, n
      px(5, i) = cx(5, i) - px(4, i)
      px(6, i) = cx(5, i) * cx(5, i) - px(6, i)
      px(7, i) = px(5, i) + px(6, i)
10 continue
end

! Kernel 11 -- first sum (prefix recurrence)
subroutine k11(nrep)
  real x(120), y(120)
  n = 64
  do 5 k = 1, n
    x(k) = 0.0
    y(k) = 0.01 * real(k)
5 continue
  do 10 irep = 1, nrep
    x(1) = y(1)
    do 10 k = 2, n
      x(k) = x(k-1) + y(k)
10 continue
end

! Kernel 12 -- first difference
subroutine k12(nrep)
  real x(120), y(120)
  n = 64
  do 5 k = 1, n + 1
    y(k) = 0.01 * real(k)
5 continue
  do 10 irep = 1, nrep
    do 10 k = 1, n
      x(k) = y(k+1) - y(k)
10 continue
end

! Kernel 13 -- 2-D particle in cell (integer index arithmetic)
subroutine k13(nrep)
  real p(4, 80), b(10, 10), c(10, 10), y(80), z(80), h(10, 10)
  n = 32
  do 5 k = 1, n
    p(1, k) = real(mod(k * 3, 8)) + 1.2
    p(2, k) = real(mod(k * 5, 8)) + 1.4
    p(3, k) = 0.01 * real(k)
    p(4, k) = 0.02 * real(k)
    y(k) = 0.3
    z(k) = 0.4
5 continue
  do 6 i = 1, 10
    do 6 j = 1, 10
      b(i, j) = 0.01
      c(i, j) = 0.02
      h(i, j) = 0.0
6 continue
  do 10 irep = 1, nrep
    do 10 ip = 1, n
      i = int(p(1, ip))
      j = int(p(2, ip))
      i = mod(i, 8) + 1
      j = mod(j, 8) + 1
      p(3, ip) = p(3, ip) + b(i, j)
      p(4, ip) = p(4, ip) + c(i, j)
      p(1, ip) = p(1, ip) + p(3, ip)
      p(2, ip) = p(2, ip) + p(4, ip)
      i = mod(int(p(1, ip)), 8) + 1
      j = mod(int(p(2, ip)), 8) + 1
      p(1, ip) = p(1, ip) + y(i + 1)
      p(2, ip) = p(2, ip) + z(j + 1)
      h(i, j) = h(i, j) + 1.0
10 continue
end

! Kernel 14 -- 1-D particle in cell
subroutine k14(nrep)
  real vx(80), xx(80), xi(80), ex(80), dex(80), ir2(80), rx(80)
  n = 32
  flx = 0.001
  do 5 k = 1, n
    vx(k) = 0.0
    xx(k) = 0.01 * real(k)
    ex(k) = 0.02 * real(k)
    dex(k) = 0.03 * real(k)
5 continue
  do 10 irep = 1, nrep
    do 8 ip = 1, n
      i = int(xx(ip))
      i = mod(i, 32) + 1
      xi(ip) = real(i)
      vx(ip) = vx(ip) + ex(i) + (xx(ip) - xi(ip)) * dex(i)
8   continue
    do 10 ip = 1, n
      xx(ip) = xx(ip) + vx(ip) + flx
10 continue
end

! Kernel 15 -- casual Fortran, with data-dependent branches
subroutine k15(nrep)
  real vy(30, 30), vs(30, 30), ve3, t, r, s
  n = 20
  do 6 i = 1, n + 1
    do 5 j = 1, n + 1
      vy(i, j) = 0.001 * real(i * j) - 0.2
      vs(i, j) = 0.002 * real(i + j)
5   continue
6 continue
  do 10 irep = 1, nrep
    do 10 i = 2, n
      do 10 j = 2, n
        ve3 = vy(i, j)
        if (vy(i, j) .lt. 0.0) ve3 = 0.0
        t = vs(i, j) + vs(i, j-1)
        if (t .gt. 0.3) t = 0.3
        r = ve3 + t
        if (r .lt. 0.0) then
          vy(i, j) = 0.0
        else
          vy(i, j) = r
        endif
10 continue
end

! Kernel 16 -- Monte Carlo search loop (heavily unstructured)
subroutine k16(nrep)
  real plan(120), zone(120)
  integer d(10)
  n = 60
  do 5 k = 1, n * 2
    plan(k) = real(mod(k * 7, 10)) - 4.5
    zone(k) = real(mod(k * 3, 10)) - 4.5
5 continue
  do 4 k = 1, 10
    d(k) = k
4 continue
  do 40 irep = 1, nrep
    ii = n / 3
    lb = ii
    k = 0
    m = 1
20  j = ii
    k = k + 1
    if (k .gt. 2 * n) goto 40
    m = m + 1
    if (m .gt. 10) m = 1
    if (plan(j + m) .lt. 0.0) goto 25
    if (zone(j + m) .lt. 0.0) goto 30
    if (plan(j + m) .lt. zone(j + m)) goto 35
    ii = ii + d(m)
    if (ii .gt. n) ii = ii - lb
    goto 20
25  ii = ii + 1
    if (ii .gt. n) ii = ii - lb
    goto 20
30  ii = ii + 2
    if (ii .gt. n) ii = ii - lb
    goto 20
35  ii = ii + 3
    if (ii .gt. n) ii = ii - lb
    goto 20
40 continue
end

! Kernel 17 -- implicit, conditional computation (goto loop)
subroutine k17(nrep)
  real vxne(120), vlr(120), vsp(120)
  n = 64
  do 5 k = 1, n
    vxne(k) = 0.01 * real(k)
    vlr(k) = 0.02 * real(k)
    vsp(k) = 0.03 * real(k)
5 continue
  do 40 irep = 1, nrep
    scale = 0.99
    xnm = 0.0066
    e6 = 0.17
    k = n
20  e3 = xnm * vlr(k) + vsp(k)
    xnei = vxne(k)
    vxne(k) = e6
    xnm = e3 * scale
    k = k - 1
    if (xnei .gt. e6) e6 = e6 * 0.9
    if (k .gt. 1) goto 20
40 continue
end

! Kernel 18 -- 2-D explicit hydrodynamics fragment
subroutine k18(nrep)
  real za(30, 30), zb(30, 30), zp(30, 30), zq(30, 30), zr(30, 30), zm(30, 30), zz(30, 30), zu(30, 30), zv(30, 30)
  n = 20
  t = 0.0037
  s = 0.0041
  do 6 i = 1, n + 2
    do 5 j = 1, n + 2
      zp(i, j) = 0.001 * real(i * j)
      zq(i, j) = 0.002 * real(i + j)
      zr(i, j) = 0.003 * real(i) + 0.001
      zm(i, j) = 0.004 * real(j) + 0.002
      zz(i, j) = 0.005
      zu(i, j) = 0.0
      zv(i, j) = 0.0
5   continue
6 continue
  do 10 irep = 1, nrep
    do 7 j = 2, n
      do 7 k = 2, n
        za(j, k) = (zp(j-1, k+1) + zq(j-1, k+1) - zp(j-1, k) - zq(j-1, k)) * (zr(j, k) + zr(j-1, k)) / (zm(j-1, k) + zm(j-1, k+1))
        zb(j, k) = (zp(j-1, k) + zq(j-1, k) - zp(j, k) - zq(j, k)) * (zr(j, k) + zr(j, k-1)) / (zm(j, k) + zm(j-1, k))
7   continue
    do 8 j = 2, n
      do 8 k = 2, n
        zu(j, k) = zu(j, k) + s * (za(j, k) * (zz(j, k) - zz(j, k+1)) - za(j-1, k) * (zz(j, k) - zz(j-1, k)) - zb(j, k) * (zz(j, k) - zz(j, k-1)))
        zv(j, k) = zv(j, k) + s * (za(j, k) * (zr(j, k) - zr(j, k+1)) - za(j-1, k) * (zr(j, k) - zr(j-1, k)) - zb(j, k) * (zr(j, k) - zr(j, k-1)))
8   continue
    do 10 j = 2, n
      do 10 k = 2, n
        zr(j, k) = zr(j, k) + t * zu(j, k)
        zz(j, k) = zz(j, k) + t * zv(j, k)
10 continue
end

! Kernel 19 -- general linear recurrence, forward and backward sweeps
subroutine k19(nrep)
  real b5(120), sa(120), sb(120)
  n = 64
  do 5 k = 1, n
    sa(k) = 0.01 * real(k)
    sb(k) = 0.02 * real(k)
    b5(k) = 0.0
5 continue
  do 10 irep = 1, nrep
    stb5 = 0.1
    do 7 k = 1, n
      b5(k) = sa(k) + stb5 * sb(k)
      stb5 = b5(k) - stb5
7   continue
    do 10 i = 1, n
      k = n - i + 1
      b5(k) = sa(k) + stb5 * sb(k)
      stb5 = b5(k) - stb5
10 continue
end

! Kernel 20 -- discrete ordinates transport
subroutine k20(nrep)
  real g(120), u(120), v(120), w(120), x(120), y(120), z(120), xx(120), vx(120)
  n = 64
  dk = 0.01
  do 5 k = 1, n + 1
    g(k) = 0.01 * real(k) + 0.1
    u(k) = 0.02 * real(k)
    v(k) = 0.03 * real(k)
    w(k) = 0.04 * real(k)
    y(k) = 0.05 * real(k) + 0.2
    z(k) = 0.06 * real(k) + 0.3
    xx(k) = 0.07
    vx(k) = 0.08 * real(k) + 0.1
5 continue
  do 10 irep = 1, nrep
    do 10 k = 2, n
      di = y(k) - g(k) / (xx(k) + dk)
      dn = 0.2
      if (di .ne. 0.0) dn = max(0.1, min(z(k-1) / di, 0.2))
      x(k) = ((w(k) + v(k) * dn) * xx(k) + u(k)) / (vx(k) + v(k) * dn)
      xx(k+1) = (x(k) - xx(k)) * dn + xx(k)
10 continue
end

! Kernel 21 -- matrix * matrix product
subroutine k21(nrep)
  real px(26, 26), vy(26, 26), cx(26, 26)
  n = 16
  do 6 i = 1, n + 9
    do 5 j = 1, n + 9
      px(i, j) = 0.0
      vy(i, j) = 0.001 * real(i * j)
      cx(i, j) = 0.002 * real(i + j)
5   continue
6 continue
  do 10 irep = 1, nrep
    do 10 k = 1, n
      do 10 i = 1, n
        do 10 j = 1, n
          px(i, j) = px(i, j) + vy(i, k) * cx(k, j)
10 continue
end

! Kernel 22 -- Planckian distribution
subroutine k22(nrep)
  real u(120), v(120), w(120), x(120), y(120)
  n = 64
  expmax = 20.0
  do 5 k = 1, n
    u(k) = 0.1 * real(k)
    v(k) = 0.05 * real(k) + 0.1
    x(k) = 0.0
    w(k) = 0.0
5 continue
  do 10 irep = 1, nrep
    u(n) = 0.99 * expmax * v(n)
    do 10 k = 1, n
      y(k) = u(k) / v(k)
      if (y(k) .gt. expmax) y(k) = expmax
      w(k) = x(k) / (exp(y(k)) - 1.0)
10 continue
end

! Kernel 23 -- 2-D implicit hydrodynamics fragment
subroutine k23(nrep)
  real za(30, 30), zb(30, 30), zr(30, 30), zu(30, 30), zv(30, 30), zz(30, 30)
  n = 20
  s = 0.1
  do 6 i = 1, n + 2
    do 5 j = 1, n + 2
      za(i, j) = 0.001 * real(i * j)
      zb(i, j) = 0.002 * real(i + j)
      zr(i, j) = 0.003 * real(i)
      zu(i, j) = 0.004 * real(j)
      zv(i, j) = 0.005
      zz(i, j) = 0.006
5   continue
6 continue
  do 10 irep = 1, nrep
    do 10 j = 2, n
      do 10 k = 2, n
        qa = za(j, k+1) * zr(j, k) + za(j, k-1) * zb(j, k) + za(j+1, k) * zu(j, k) + za(j-1, k) * zv(j, k) + zz(j, k)
        za(j, k) = za(j, k) + s * (qa - za(j, k))
10 continue
end

! Kernel 24 -- find location of first minimum in array
subroutine k24(nrep)
  real x(120)
  n = 64
  do 5 k = 1, n
    x(k) = real(mod(k * 37, 100)) - 50.0
5 continue
  do 10 irep = 1, nrep
    m = 1
    do 10 k = 2, n
      if (x(k) .lt. x(m)) m = k
10 continue
end
)FTN";

//===----------------------------------------------------------------------===//
// SIMPLE: hydrodynamics / heat-flow kernel, 100 x 100, NCYCLES = 10.
//===----------------------------------------------------------------------===//

static const char SimpleSource[] = R"FTN(
! A SIMPLE-shaped [CHR78] hydrodynamics and heat diffusion kernel on a
! 100 x 100 staggered grid, NCYCLES = 10: a Lagrangian phase updating
! velocities and coordinates from pressure gradients, an equation-of-state
! pass with a data-dependent clamp, a heat-diffusion sweep, and an energy
! reduction with a convergence test.

program simple
  real r(100, 100), z(100, 100), ru(100, 100), rv(100, 100)
  real p(100, 100), q(100, 100), e(100, 100), t(100, 100)
  integer cyc, ncycle
  n = 100
  ncycle = 10
  dt = 0.001

  ! Problem setup.
  do 6 i = 1, n
    do 5 j = 1, n
      r(i, j) = 0.01 * real(i)
      z(i, j) = 0.01 * real(j)
      ru(i, j) = 0.0
      rv(i, j) = 0.0
      p(i, j) = 1.0 + 0.001 * real(i + j)
      q(i, j) = 0.0
      e(i, j) = 2.5
      t(i, j) = 1.0 + 0.0001 * real(i * j)
5   continue
6 continue

  do 100 cyc = 1, ncycle
    ! Phase 1: Lagrangian momentum update from pressure gradients.
    do 20 i = 2, n - 1
      do 20 j = 2, n - 1
        dpdr = (p(i+1, j) - p(i-1, j)) * 0.5
        dpdz = (p(i, j+1) - p(i, j-1)) * 0.5
        ru(i, j) = ru(i, j) - dt * (dpdr + q(i, j))
        rv(i, j) = rv(i, j) - dt * (dpdz + q(i, j))
        r(i, j) = r(i, j) + dt * ru(i, j)
        z(i, j) = z(i, j) + dt * rv(i, j)
20  continue

    ! Phase 2: artificial viscosity and equation of state with clamps.
    do 40 i = 2, n - 1
      do 40 j = 2, n - 1
        du = ru(i+1, j) - ru(i, j)
        if (du .lt. 0.0) then
          q(i, j) = 2.0 * du * du
        else
          q(i, j) = 0.0
        endif
        p(i, j) = 0.4 * e(i, j) * (1.0 + 0.001 * real(i))
        if (p(i, j) .lt. 0.0) p(i, j) = 0.0
40  continue

    ! Phase 3: energy update.
    do 60 i = 2, n - 1
      do 60 j = 2, n - 1
        e(i, j) = e(i, j) - dt * p(i, j) * (ru(i+1, j) - ru(i-1, j) + rv(i, j+1) - rv(i, j-1)) * 0.5
60  continue

    ! Phase 4: heat diffusion sweep (alternating direction).
    do 70 i = 2, n - 1
      do 70 j = 2, n - 1
        t(i, j) = t(i, j) + 0.1 * (t(i+1, j) + t(i-1, j) - 2.0 * t(i, j))
70  continue
    do 80 j = 2, n - 1
      do 80 i = 2, n - 1
        t(i, j) = t(i, j) + 0.1 * (t(i, j+1) + t(i, j-1) - 2.0 * t(i, j))
80  continue

    ! Phase 5: global energy check (early convergence exit).
    ek = 0.0
    ei = 0.0
    do 90 i = 1, n
      do 90 j = 1, n
        ek = ek + 0.5 * (ru(i, j) * ru(i, j) + rv(i, j) * rv(i, j))
        ei = ei + e(i, j)
90  continue
    if (ek .lt. 0.0000000001 .and. cyc .gt. 3) goto 110
100 continue
110 continue
  print ek, ei
end
)FTN";

const Workload &ptran::livermoreLoops() {
  static const Workload W{"LOOPS", LoopsSource, 400'000'000};
  return W;
}

const Workload &ptran::simpleKernel() {
  static const Workload W{"SIMPLE", SimpleSource, 400'000'000};
  return W;
}

std::vector<const Workload *> ptran::table1Workloads() {
  return {&livermoreLoops(), &simpleKernel()};
}

std::unique_ptr<Program> ptran::parseWorkload(const Workload &W) {
  DiagnosticEngine Diags;
  std::unique_ptr<Program> P = parseProgram(W.Source, Diags);
  if (!P)
    reportFatalError("workload " + W.Name + " failed to parse:\n" +
                     Diags.str());
  return P;
}

std::unique_ptr<Program> ptran::makeScalingProgram(unsigned Units,
                                                   unsigned Depth) {
  auto Prog = std::make_unique<Program>();
  DiagnosticEngine Diags;
  FunctionBuilder B(*Prog, "main", Diags);
  VarId Acc = B.intVar("acc");
  B.assign(Acc, B.lit(0));

  int NextLabel = 1;
  // Each unit: Depth nested DO loops around an IF diamond.
  for (unsigned U = 0; U < Units; ++U) {
    std::vector<VarId> Ivs;
    for (unsigned D = 0; D < Depth; ++D) {
      VarId I = B.intVar("i" + std::to_string(U) + "_" + std::to_string(D));
      B.doLoop(I, B.lit(1), B.lit(2));
      Ivs.push_back(I);
    }
    int Else = NextLabel++;
    int End = NextLabel++;
    B.ifGoto(B.gt(B.var(Acc), B.lit(1000)), Else);
    B.assign(Acc, B.add(B.var(Acc), B.lit(1)));
    B.gotoLabel(End);
    B.label(Else).assign(Acc, B.sub(B.var(Acc), B.lit(1000)));
    B.label(End).cont();
    for (unsigned D = 0; D < Depth; ++D)
      B.endDo();
  }
  B.print({B.var(Acc)});
  if (!B.finish())
    reportFatalError("scaling program failed to build:\n" + Diags.str());
  return Prog;
}

std::unique_ptr<Program> ptran::makeManyFunctionProgram(unsigned Funcs,
                                                        unsigned Depth) {
  if (Funcs == 0)
    Funcs = 1;
  auto Prog = std::make_unique<Program>();
  DiagnosticEngine Diags;
  auto NameOf = [](unsigned K) {
    return K == 0 ? std::string("main") : "f" + std::to_string(K);
  };

  for (unsigned K = 0; K < Funcs; ++K) {
    FunctionBuilder B(*Prog, NameOf(K), Diags);
    VarId Acc = B.intVar("acc");
    B.assign(Acc, B.lit(static_cast<int64_t>(K)));
    for (unsigned D = 0; D < Depth; ++D) {
      VarId I = B.intVar("i" + std::to_string(D));
      B.doLoop(I, B.lit(1), B.lit(3));
    }
    int Else = 1, End = 2;
    B.ifGoto(B.gt(B.var(Acc), B.lit(50)), Else);
    B.assign(Acc, B.add(B.var(Acc), B.lit(static_cast<int64_t>(K + 1))));
    B.gotoLabel(End);
    B.label(Else).assign(Acc, B.sub(B.var(Acc), B.lit(50)));
    B.label(End).cont();
    for (unsigned D = 0; D < Depth; ++D)
      B.endDo();
    // Binary call tree: every non-leaf fans out to two independent
    // subtrees, giving the call graph wide levels.
    unsigned Left = 2 * K + 1, Right = 2 * K + 2;
    if (Left < Funcs)
      B.callSub(NameOf(Left), {});
    if (Right < Funcs)
      B.callSub(NameOf(Right), {});
    if (K == 0)
      B.print({B.var(Acc)});
    if (!B.finish())
      reportFatalError("many-function program failed to build:\n" +
                       Diags.str());
  }
  return Prog;
}
