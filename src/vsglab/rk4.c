/* Classical RK4 integration of the VSG outer power loops, step by step from a
 * state up to the next stop: the next scenario event, a full estimator window,
 * or the end of the run.
 *
 * The states are delta, omega, v_cmd and, with the P/Q measurement filter,
 * its outputs P_f and Q_f.  Each stage evaluates, at its input state:
 *   d(delta)/dt = omega - omega_nom
 *   d(omega)/dt = K_ip (P_ref - P - D_p (omega - omega_nom))
 *   d(v_cmd)/dt = K_iq (Q_ref - Q - D_q (v_cmd - v_nom))
 * with omega_nom, v_nom the grid's w0, vg and P, Q from the phasor power flow
 * across R + jX.  With the filter the loops act on P_f, Q_f, the first-order
 * lag of P, Q at cutoff wc; without it P_f, Q_f are not integrated.
 *
 * Each estimator sample is the instantaneous single-phase PCC voltage and grid
 * current, v = sqrt(2) V sin(w0 t + delta) and i = sqrt(2) |I| sin(w0 t + arg I),
 * where I = (V e^{j delta} - vg) / (R + jX) is the current phasor.  The kernel
 * synthesizes one at every sample; vsg_window_waveforms synthesizes the
 * dataset's windows, one phasor per window, with the same arithmetic.
 *
 * Every floating-point expression is written in the order, and with the
 * association, that vsglab's Python code evaluates it in, and the file is
 * built with -ffp-contract=off, so that no multiply-add is fused: a run gives,
 * bit for bit, the rows that classical RK4 in Python gives.  Each waveform
 * sample is, bit for bit, what CPython's complex arithmetic gives on the
 * scalars: the float operands promoted to complex, Smith's division
 * (_Py_c_quot) in both of its branches, and libm's hypot, atan2 and sin.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* y: the state, read and written back */
enum { Y_DELTA, Y_OMEGA, Y_V, Y_PF, Y_QF };
/* par: the plant and loop inputs; wc = 0 runs without the P/Q filter, and the
   run stops before the first step at or after t_event */
enum { PAR_H, PAR_VG, PAR_W0, PAR_WC, PAR_X, PAR_P_REF, PAR_Q_REF, PAR_T_EVENT };
/* row: the last eight columns of every output row, fixed between stops; the
   power flow reads R and the step the four gains from it */
enum { ROW_R, ROW_L, ROW_R_EST, ROW_L_EST, ROW_DP, ROW_KIP, ROW_DQ, ROW_KIQ, ROW_LEN };
/* ix: position (read and written back), then sizes; dec_est = 0 takes no
   estimator samples */
enum { IX_K, IX_SAMPLED, IX_OUT_ROW, IX_WIN_LEN, IX_N_STEPS, IX_DEC_OUT, IX_DEC_EST,
       IX_WIN_CAP };
/* what the run stopped at; on a failure ix[IX_K] is the failing step, the
   first whose result is not finite (an infinite stage angle makes it NaN) */
enum { STOP_END, STOP_EVENT, STOP_WINDOW, FAIL_NON_FINITE };

#define OUT_COLS 14 /* t, p, q, delta, omega, v_cmd, then the row's eight */
#define WIN_COLS 3  /* t, v, i */

/* The magnitude and angle of the current phasor (v e^{j d} - vg) / (r + jx), as
   CPython evaluates abs() and math.atan2 of (v * complex(cos d, sin d) - vg) /
   complex(r, x). */
static void current_phasor(double d, double v, double vg, double r, double x,
                           double *mag, double *arg)
{
    const double cd = cos(d);
    const double sd = sin(d);
    const double a_re = v * cd - 0.0 * sd - vg;
    const double a_im = v * sd + 0.0 * cd - 0.0;
    double i_re, i_im;
    if (fabs(r) >= fabs(x)) { /* divide through by r */
        const double ratio = x / r;
        const double denom = r + x * ratio;
        i_re = (a_re + a_im * ratio) / denom;
        i_im = (a_im - a_re * ratio) / denom;
    } else { /* by x */
        const double ratio = r / x;
        const double denom = r * ratio + x;
        i_re = (a_re * ratio + a_im) / denom;
        i_im = (a_im * ratio - a_re) / denom;
    }
    *mag = hypot(i_re, i_im);
    *arg = atan2(i_im, i_re);
}

/* The sample at time t of the sinusoid of RMS value rms and phase phase. */
static double wave(double rms, double w0, double t, double phase)
{
    return sqrt(2.0) * rms * sin(w0 * t + phase);
}

/* The dataset's windows.  For each of the n rows (delta, V, R, X) of ph, one
 * row of out: the window's len samples of v at the times t[0 .. len), then
 * its len samples of i; vg is the grid's voltage and w0 its frequency.
 */
void vsg_window_waveforms(int64_t n, int64_t len, const double *t, const double *ph,
                          double w0, double vg, double *out)
{
    for (int64_t k = 0; k < n; k++, ph += 4, out += 2 * len) {
        double mag, arg;
        current_phasor(ph[0], ph[1], vg, ph[2], ph[3], &mag, &arg);
        for (int64_t j = 0; j < len; j++) {
            out[j] = wave(ph[1], w0, t[j], ph[0]);
            out[len + j] = wave(mag, w0, t[j], arg);
        }
    }
}

/* Integrate step k = ix[IX_K] onwards.  Each step takes, in order: the stop at
 * an event (before its estimator sample, so the event applies first), the
 * estimator sample (t, v, i) at every dec_est-th step after t = 0,
 * the output row at every dec_out-th step, and the RK4 step.  A full window
 * of ix[IX_WIN_CAP] samples stops the run after its last sample, with
 * ix[IX_SAMPLED] set, so that the next call resumes step k after its sample.
 */
int vsg_rk4_run(double *y, const double *par, const double *row, int64_t *ix,
                double *out, double *win)
{
    const double h = par[PAR_H], vg = par[PAR_VG], w0 = par[PAR_W0], wc = par[PAR_WC];
    const double x = par[PAR_X], pref = par[PAR_P_REF], qref = par[PAR_Q_REF];
    const double t_event = par[PAR_T_EVENT];
    const double r = row[ROW_R];
    const double dp = row[ROW_DP], kip = row[ROW_KIP], dq = row[ROW_DQ], kiq = row[ROW_KIQ];
    const int64_t n_steps = ix[IX_N_STEPS], dec_out = ix[IX_DEC_OUT];
    const int64_t dec_est = ix[IX_DEC_EST], win_cap = ix[IX_WIN_CAP];
    const double kz = 3.0 / (r * r + x * x);
    const double s6 = h / 6.0;
    /* RK4 stages: the step from the state to the next stage's input, and the
       weight of this stage's slope; the last stage feeds no other */
    const double step[4] = {0.5 * h, 0.5 * h, h, 0.0};
    const double weight[4] = {1.0, 2.0, 2.0, 1.0};

    double d = y[Y_DELTA], w = y[Y_OMEGA], v = y[Y_V], pf = y[Y_PF], qf = y[Y_QF];
    int64_t k = ix[IX_K], out_row = ix[IX_OUT_ROW], win_len = ix[IX_WIN_LEN];
    int sampled = (int)ix[IX_SAMPLED];
    int status;

    for (;; k++, sampled = 0) {
        const double t = (double)k * h;

        if (!sampled) {
            if (t >= t_event) {
                status = STOP_EVENT;
                break;
            }
            if (dec_est > 0 && k > 0 && k % dec_est == 0) {
                double *s = win + WIN_COLS * win_len, mag, arg;
                current_phasor(d, v, vg, r, x, &mag, &arg);
                s[0] = t;
                s[1] = wave(v, w0, t, d);
                s[2] = wave(mag, w0, t, arg);
                if (++win_len == win_cap) {
                    status = STOP_WINDOW;
                    break;
                }
            }
        }

        if (k % dec_out == 0) {
            /* the logged P and Q as grid._pf computes them */
            const double den = r * r + x * x;
            const double sn = sin(d);
            const double cs = cos(d);
            const double kk = 3.0 / den;
            double *o = out + OUT_COLS * out_row++;
            o[0] = t;
            o[1] = kk * (r * v * v - r * v * vg * cs + x * v * vg * sn);
            o[2] = kk * (x * v * v - x * v * vg * cs - r * v * vg * sn);
            o[3] = d;
            o[4] = w;
            o[5] = v;
            memcpy(o + 6, row, ROW_LEN * sizeof(double));
        }

        if (k == n_steps) {
            status = STOP_END;
            break;
        }

        /* One RK4 step.  The weighted slopes sum as ((k1 + 2 k2) + 2 k3) + k4;
           -0.0 is the one start that leaves k1 as it is. */
        double ds = d, ws = w, vs = v, pfs = pf, qfs = qf;
        double sum_d = -0.0, sum_w = -0.0, sum_v = -0.0, sum_pf = -0.0, sum_qf = -0.0;
        for (int j = 0; j < 4; j++) {
            const double sd = sin(ds);
            const double cd = cos(ds);
            const double vvg = vs * vg;
            double p = kz * (r * vs * vs - r * vvg * cd + x * vvg * sd);
            double q = kz * (x * vs * vs - x * vvg * cd - r * vvg * sd);
            if (wc != 0.0) {
                const double dpf = wc * (p - pfs), dqf = wc * (q - qfs);
                sum_pf += weight[j] * dpf;
                sum_qf += weight[j] * dqf;
                p = pfs;
                q = qfs;
                pfs = pf + step[j] * dpf;
                qfs = qf + step[j] * dqf;
            }
            const double slip = ws - w0;
            const double dw = kip * (pref - p - dp * slip);
            const double dv = kiq * (qref - q - dq * (vs - vg));
            sum_d += weight[j] * slip;
            sum_w += weight[j] * dw;
            sum_v += weight[j] * dv;
            ds = d + step[j] * slip;
            ws = w + step[j] * dw;
            vs = v + step[j] * dv;
        }
        d = d + s6 * sum_d;
        w = w + s6 * sum_w;
        v = v + s6 * sum_v;
        if (wc != 0.0) {
            pf = pf + s6 * sum_pf;
            qf = qf + s6 * sum_qf;
        }
        if (!isfinite(d + w + v)) {
            status = FAIL_NON_FINITE;
            break;
        }
    }

    y[Y_DELTA] = d;
    y[Y_OMEGA] = w;
    y[Y_V] = v;
    y[Y_PF] = pf;
    y[Y_QF] = qf;
    ix[IX_K] = k;
    ix[IX_SAMPLED] = status == STOP_WINDOW;
    ix[IX_OUT_ROW] = out_row;
    ix[IX_WIN_LEN] = win_len;
    return status;
}
