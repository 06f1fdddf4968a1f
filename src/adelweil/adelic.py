"""Per-chain connection calculus for adelically framed bundles.

A chain is a list of point labels; each point carries an invertible
frame matrix over the chart ring, and the simplex-weighted combination
of the per-point flat connections gives the mixed connection

    theta = -sum_i t_i g_i^(-1) dg_i,

a matrix of (1,0)-forms on the product of the chain simplex with the
chart.  Everything downstream (curvature, Chern components, the
Whitney product identity, the localization identities that feed the
residue formula) is exact symbolic computation in that algebra.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DimensionMismatch,
    IdentityFailed,
    MissingPoint,
    NonInvertibleFrame,
    NoNonvanishing,
    NotAUnit,
)
from .exactalg import MultiPoly, RatFunc, RingMatrix
from .dgforms import (
    DGContext,
    DiffForm,
    FormMatrix,
    InvariantPolynomial,
    chain_context,
    invariant_eval,
    matrix_curvature,
    polynomial_context,
)
from .simplicial import fiber_integrate


class Chain:
    """Ordered point labels (x_0, .., x_l), generic first."""

    def __init__(self, labels):
        self.labels = tuple(labels)
        if not self.labels:
            raise DimensionMismatch("a chain needs at least one point")
        if len(set(self.labels)) != len(self.labels):
            raise DimensionMismatch(f"repeated labels in chain {self.labels}")

    def __eq__(self, other):
        if not isinstance(other, Chain):
            return NotImplemented
        return self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    @property
    def length(self) -> int:
        return len(self.labels) - 1

    def render(self) -> str:
        return "(" + ", ".join(self.labels) + ")"


class ChartModel:
    """One affine chart: coordinates, frames, and vector-field data.

    `frames` maps point labels to invertible matrices over the chart
    ring (the frame of the bundle at that point, written in a fixed
    reference frame).  `points` maps labels to coordinate dictionaries
    for closed points, or None for points treated generically.  The
    optional vector field `a` and endomorphism lift `lift` feed the
    localization identities.
    """

    def __init__(self, base_vars: tuple[str, ...], rank: int,
                 frames: dict | None = None, points: dict | None = None,
                 a: list | None = None, lift: RingMatrix | None = None):
        self.base_vars = base_vars
        self.rank = rank
        self.frames = {} if frames is None else frames
        self.points = {} if points is None else points
        self.a = a
        self.lift = lift

    def ring(self) -> DGContext:
        return polynomial_context(self.base_vars)

    def frame(self, label: str) -> RingMatrix:
        g = self.frames.get(label)
        if g is None:
            raise MissingPoint(f"no frame for point {label!r}")
        return g


def _to_ctx(value, ctx: DGContext) -> RatFunc:
    if isinstance(value, RatFunc):
        return RatFunc(value.num.extend_vars(ctx.even_vars),
                       value.den.extend_vars(ctx.even_vars))
    if isinstance(value, MultiPoly):
        return ctx.ring_poly(value)
    return ctx.ring_const(value)


def chain_algebra(model: ChartModel, chain: Chain,
                  inert: tuple[str, ...] = ()) -> DGContext:
    """The form algebra of the chain simplex times the chart."""
    return chain_context(chain.length, model.base_vars, inert)


def covertex_lift(values: dict, chain: Chain, ctx: DGContext) -> DiffForm:
    """Simplex-weighted combination sum t_i * value(x_i).

    Values may be ring elements or base forms; the result restricts to
    value(x_i) at vertex i.  A constant family lifts to itself because
    the t_i sum to 1.
    """
    acc = ctx.zero_form()
    for i, label in enumerate(chain.labels):
        if label not in values:
            raise MissingPoint(f"no value at chain point {label!r}")
        v = values[label]
        if isinstance(v, DiffForm):
            v = v.substitute(ctx)
        else:
            v = ctx.form_scalar(_to_ctx(v, ctx))
        acc = acc + ctx.t(i) * v
    return acc


class ChainConnection:
    """Mixed connection matrix on one chain."""

    def __init__(self, ctx: DGContext, chain: Chain, theta: FormMatrix,
                 rank: int):
        self.ctx = ctx
        self.chain = chain
        self.theta = theta
        self.rank = rank

    def curvature(self) -> FormMatrix:
        return matrix_curvature(self.theta)

    def curvature_11(self, curvature: FormMatrix | None = None) -> FormMatrix:
        """(1,1) part of the curvature (given, or computed here), along
        both routes."""
        if curvature is None:
            curvature = self.curvature()
        direct = self.theta.d_simplex()
        from_full = curvature.bidegree_component(1, 1)
        if direct != from_full:
            raise IdentityFailed(
                "curvature (1,1) components disagree between routes")
        return direct


def _as_ratfunc(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, MultiPoly):
        return RatFunc(x)
    raise DimensionMismatch(f"bad frame entry {x!r}")


def mixed_connection(model: ChartModel, chain: Chain,
                     inert: tuple[str, ...] = ()) -> ChainConnection:
    """Glue the per-point flat connections over the chain simplex."""
    ctx = chain_algebra(model, chain, inert)
    r = model.rank
    theta = FormMatrix.zero(ctx, r)
    for i, label in enumerate(chain.labels):
        g = model.frame(label).map(_as_ratfunc)
        if g.shape != (r, r):
            raise DimensionMismatch(
                f"frame at {label!r} has shape {g.shape}, rank is {r}")
        try:
            ginv = g.inv()
        except (NotAUnit, ZeroDivisionError):
            raise NonInvertibleFrame(
                f"frame at {label!r} is not invertible") from None
        gf = FormMatrix.from_ring(ctx, [[_to_ctx(x, ctx) for x in row]
                                        for row in g.rows])
        ginvf = FormMatrix.from_ring(ctx, [[_to_ctx(x, ctx) for x in row]
                                           for row in ginv.rows])
        omega = ginvf @ gf.d_base()
        theta = theta - omega.scale(ctx.t(i))
    return ChainConnection(ctx, chain, theta, r)


def chern_form_component(i: int, conn: ChainConnection) -> DiffForm:
    """Simplex integral of the i-th elementary invariant of curvature.

    For a length-l chain only the simplex-top part survives, so on a
    curve with a maximal chain this is a rational 1-form on the chart.
    """
    P = InvariantPolynomial.elementary(conn.rank, i)
    return fiber_integrate(invariant_eval(P, conn.curvature()))


# -- Whitney product ---------------------------------------------------------


def block_frames(sub: ChartModel, quot: ChartModel, mixing: dict) -> ChartModel:
    """Extension frames [[g', s], [0, g'']] from two factor models.

    `mixing` gives the upper-right block per point (zero if omitted).
    """
    if sub.base_vars != quot.base_vars:
        raise DimensionMismatch("factor models live on different charts")
    rp, rq = sub.rank, quot.rank
    zero_ring = polynomial_context(sub.base_vars)
    frames = {}
    for label in sub.frames:
        if label not in quot.frames:
            raise MissingPoint(f"no quotient frame at {label!r}")
        gp, gq = sub.frame(label), quot.frame(label)
        s = mixing.get(label)
        rows = []
        for i in range(rp):
            row = list(gp.rows[i])
            for j in range(rq):
                row.append(s.rows[i][j] if s is not None
                           else zero_ring.ring_const(0))
            rows.append(row)
        for i in range(rq):
            row = [zero_ring.ring_const(0)] * rp + list(gq.rows[i])
            rows.append(row)
        frames[label] = RingMatrix(rows)
    points = dict(sub.points)
    points.update(quot.points)
    return ChartModel(sub.base_vars, rp + rq, frames, points)


def chern_series(conn: ChainConnection) -> list:
    """Coefficient forms of det(1 + t * curvature): [1, P_1(R), ..]."""
    return [conn.ctx.one_form(), *conn.curvature().invariants()]


def whitney_check(sub: ChartModel, quot: ChartModel, mixing: dict,
                  chain: Chain) -> dict:
    """Total Chern series of an extension against the factor product.

    Builds the block frames, computes the three coefficient lists on
    the same chain, and compares degree by degree.
    """
    total = block_frames(sub, quot, mixing)
    conn = mixed_connection(total, chain)
    conn_p = mixed_connection(sub, chain)
    conn_q = mixed_connection(quot, chain)
    ctx = conn.ctx
    pt = chern_series(conn)
    pt_p = chern_series(conn_p)
    pt_q = chern_series(conn_q)
    first_failure = None
    for k in range(total.rank + 1):
        want = ctx.zero_form()
        for i in range(k + 1):
            j = k - i
            if i < len(pt_p) and j < len(pt_q):
                want = want + pt_p[i] * pt_q[j]
        if pt[k] != want and first_failure is None:
            first_failure = k
    return {
        "ok": first_failure is None,
        "first_failure": first_failure,
        "total": pt,
        "sub": pt_p,
        "quot": pt_q,
        "chain": chain,
    }


# -- the projector and localization ------------------------------------------


def projector(model: ChartModel, label: str) -> DiffForm:
    """The 1-form pi at one point: zero on the zero locus, else the
    inverse of the first nonvanishing component times its coordinate
    differential, so that contraction with the vector field gives 1.
    """
    if model.a is None:
        raise DimensionMismatch("model carries no vector field")
    if label not in model.points:
        raise MissingPoint(f"unknown point {label!r}")
    point = model.points[label]
    ring = model.ring()
    if point is not None:
        values = [_to_ctx(ai, ring).evaluate(point) for ai in model.a]
        if not any(values):
            return ring.zero_form()
        j = next(i for i, v in enumerate(values) if v)
    else:
        nonzero = [i for i, ai in enumerate(model.a)
                   if not _to_ctx(ai, ring).is_zero()]
        if not nonzero:
            raise NoNonvanishing("every vector-field component vanishes")
        j = nonzero[0]
    aj = _to_ctx(model.a[j], ring)
    return ring.form_scalar(aj.invert()) * ring.df(model.base_vars[j])


def contraction_with_field(form, model: ChartModel):
    """Interior product against the model's vector field."""
    ctx = form.ctx if isinstance(form, (DiffForm, FormMatrix)) else None
    comps = {name: _to_ctx(ai, ctx)
             for name, ai in zip(model.base_vars, model.a)}
    return form.contract(comps)


def action_deficiency(model: ChartModel, conn: ChainConnection) -> FormMatrix:
    """The endomorphism L = lift - (contraction of the connection).

    Its simplex differential equals the contraction of the (1,1)
    curvature, which is the first localization identity.
    """
    if model.lift is None:
        raise DimensionMismatch("model carries no endomorphism lift")
    ctx = conn.ctx
    lam = FormMatrix.from_ring(ctx, [[_to_ctx(x, ctx) for x in row]
                                     for row in model.lift.rows])
    return lam - contraction_with_field(conn.theta, model)


TAU = "tau"


def localization_check(model: ChartModel, chain: Chain) -> bool:
    """Verify both localization identities on one chain, exactly.

    (a) contraction of the (1,1) curvature equals the simplex
    differential of L; (b) with eta built from P(L + tau R) for P the
    top-degree invariant `top_degree(rank, n)`, the projector, and the
    geometric series in tau D''(pi), the tau^(n-1) coefficient satisfies
    D'' eta + P(R^(1,1)) = 0.  Raises IdentityFailed with the offending
    residual; a projector that does not contract to 1 against the vector
    field trips (b).
    """
    n = len(model.base_vars)
    P = InvariantPolynomial.top_degree(model.rank, n)
    conn = mixed_connection(model, chain, inert=(TAU,))
    ctx = conn.ctx
    R11 = conn.curvature_11()
    L = action_deficiency(model, conn)

    residual_a = contraction_with_field(R11, model) - L.d_simplex()
    if not residual_a.is_zero():
        raise IdentityFailed(
            "contraction of curvature differs from d''L: "
            + residual_a.render())

    pis = {label: projector(model, label) for label in chain.labels}
    pi = covertex_lift(pis, chain, ctx)
    tau = ctx.form_scalar(ctx.ring_var(TAU))
    dpi = pi.d_simplex()
    geom = ctx.one_form()
    power = ctx.one_form()
    for _ in range(n - 1):
        power = power * tau * dpi
        if power.is_zero():
            break
        geom = geom + power
    eta = invariant_eval(P, L + R11.scale(tau)) * pi * geom
    eta_top = eta.inert_coefficient(TAU, n - 1)
    residual_b = eta_top.d_simplex() + invariant_eval(P, R11)
    residual_b = residual_b.inert_coefficient(TAU, 0)
    if not residual_b.is_zero():
        raise IdentityFailed(
            "d'' eta + P(R^(1,1)) is not zero: " + residual_b.render())
    return True
